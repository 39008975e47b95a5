package service

import (
	"strings"
	"testing"
	"time"
)

// TestDurationHistLadder pins the latency bucket set, sub-millisecond
// bounds included, and that an observation is counted cumulatively from
// the first bound at or above it.
func TestDurationHistLadder(t *testing.T) {
	var h durationHist
	h.observe(200 * time.Microsecond)
	h.observe(3 * time.Millisecond)
	h.observe(time.Minute)
	var b strings.Builder
	h.write(&b, "x", "")
	want := `x_bucket{le="0.0001"} 0
x_bucket{le="0.00025"} 1
x_bucket{le="0.0005"} 1
x_bucket{le="0.001"} 1
x_bucket{le="0.0025"} 1
x_bucket{le="0.005"} 2
x_bucket{le="0.01"} 2
x_bucket{le="0.025"} 2
x_bucket{le="0.05"} 2
x_bucket{le="0.1"} 2
x_bucket{le="0.25"} 2
x_bucket{le="0.5"} 2
x_bucket{le="1"} 2
x_bucket{le="2.5"} 2
x_bucket{le="5"} 2
x_bucket{le="10"} 2
x_bucket{le="+Inf"} 3
x_sum 60.0032
x_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("histogram exposition:\n%s\nwant:\n%s", got, want)
	}
}
