package service

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server-side request latency: ust_request_duration_seconds histograms
// labelled by endpoint and outcome, plus ust_http_requests_total
// counters labelled by endpoint and status code. This is the server
// half of the latency-correlation story — ustload records what clients
// observe, these buckets record what the server spent, and the gap
// between them is queueing (network, kernel, admission).
//
// Buckets follow the Prometheus convention (cumulative, le-labelled,
// +Inf implicit in _count). The bounds ladder from 100µs to 10s: low
// enough that a cached query or an observe, served in well under a
// millisecond, lands in a bucket of its own size, and wide enough that
// a subscribe held open for seconds lands in a real bucket instead of
// saturating +Inf.

var durationBuckets = [...]float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// durationHist is one (endpoint, outcome) histogram: atomic per-bucket
// counters, non-cumulative in memory (summed at exposition).
type durationHist struct {
	buckets [len(durationBuckets) + 1]atomic.Uint64 // last = overflow (+Inf)
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

func (h *durationHist) observe(d time.Duration) {
	sec := d.Seconds()
	idx := len(durationBuckets)
	for i, ub := range durationBuckets {
		if sec <= ub {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	if d > 0 {
		h.sumNs.Add(uint64(d))
	}
}

// write emits the histogram's bucket, sum and count lines under name.
// labels is empty or a comma-terminated label list.
func (h *durationHist) write(w io.Writer, name, labels string) {
	var cum uint64
	for i, ub := range durationBuckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, ub, cum)
	}
	cum += h.buckets[len(durationBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	set := strings.TrimSuffix(labels, ",")
	if set != "" {
		set = "{" + set + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, h.count.Load())
}

// importMetrics prices the fleet write path where it lands: bytes and
// objects accepted through ImportObjects (single writes, set-up batches
// and rebalance migration alike) and the time each batch took to decode
// and apply under the dataset lock. Failed imports count nowhere here;
// the coordinator counts them per shard.
type importMetrics struct {
	bytes, objects atomic.Uint64
	duration       durationHist
}

func (m *importMetrics) record(bytes, objects int, d time.Duration) {
	m.bytes.Add(uint64(bytes))
	m.objects.Add(uint64(objects))
	m.duration.observe(d)
}

type durationKey struct{ endpoint, outcome string }
type codeKey struct {
	endpoint string
	code     int
}

// httpMetrics aggregates the per-endpoint instrumentation. Keys are a
// small fixed population (endpoints × outcomes), so a RWMutex-guarded
// map with atomic leaves keeps the record path contention-free after
// first sight of each pair.
type httpMetrics struct {
	mu        sync.RWMutex
	durations map[durationKey]*durationHist
	codes     map[codeKey]*atomic.Uint64
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{
		durations: map[durationKey]*durationHist{},
		codes:     map[codeKey]*atomic.Uint64{},
	}
}

// outcomeOf maps an HTTP status onto the outcome label: ok (2xx/3xx),
// overloaded (429 — admission control), client_error (other 4xx),
// error (5xx).
func outcomeOf(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "overloaded"
	case code >= 500:
		return "error"
	case code >= 400:
		return "client_error"
	default:
		return "ok"
	}
}

func (m *httpMetrics) observe(endpoint string, code int, d time.Duration) {
	dk := durationKey{endpoint, outcomeOf(code)}
	ck := codeKey{endpoint, code}
	m.mu.RLock()
	h, hok := m.durations[dk]
	c, cok := m.codes[ck]
	m.mu.RUnlock()
	if !hok || !cok {
		m.mu.Lock()
		if h, hok = m.durations[dk]; !hok {
			h = &durationHist{}
			m.durations[dk] = h
		}
		if c, cok = m.codes[ck]; !cok {
			c = &atomic.Uint64{}
			m.codes[ck] = c
		}
		m.mu.Unlock()
	}
	h.observe(d)
	c.Add(1)
}

// write emits the exposition lines, deterministically ordered.
func (m *httpMetrics) write(w io.Writer) {
	m.mu.RLock()
	dkeys := make([]durationKey, 0, len(m.durations))
	for k := range m.durations {
		dkeys = append(dkeys, k)
	}
	ckeys := make([]codeKey, 0, len(m.codes))
	for k := range m.codes {
		ckeys = append(ckeys, k)
	}
	m.mu.RUnlock()
	sort.Slice(dkeys, func(a, b int) bool {
		if dkeys[a].endpoint != dkeys[b].endpoint {
			return dkeys[a].endpoint < dkeys[b].endpoint
		}
		return dkeys[a].outcome < dkeys[b].outcome
	})
	sort.Slice(ckeys, func(a, b int) bool {
		if ckeys[a].endpoint != ckeys[b].endpoint {
			return ckeys[a].endpoint < ckeys[b].endpoint
		}
		return ckeys[a].code < ckeys[b].code
	})

	if len(dkeys) > 0 {
		fmt.Fprint(w, "# HELP ust_request_duration_seconds Server-side request handling latency by endpoint and outcome.\n# TYPE ust_request_duration_seconds histogram\n")
		for _, k := range dkeys {
			m.mu.RLock()
			h := m.durations[k]
			m.mu.RUnlock()
			h.write(w, "ust_request_duration_seconds",
				fmt.Sprintf("endpoint=\"%s\",outcome=\"%s\",", promLabel(k.endpoint), promLabel(k.outcome)))
		}
	}
	if len(ckeys) > 0 {
		fmt.Fprint(w, "# HELP ust_http_requests_total HTTP requests by endpoint and status code.\n# TYPE ust_http_requests_total counter\n")
		for _, k := range ckeys {
			m.mu.RLock()
			c := m.codes[k]
			m.mu.RUnlock()
			fmt.Fprintf(w, "ust_http_requests_total{endpoint=\"%s\",code=\"%d\"} %d\n",
				promLabel(k.endpoint), k.code, c.Load())
		}
	}
}

// statusWriter captures the response status for instrumentation while
// staying transparent to streaming handlers: Flush forwards, and Unwrap
// lets http.ResponseController reach the per-flush write deadlines the
// NDJSON handlers set.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps a handler with duration/outcome recording under the
// given endpoint label. Long-lived endpoints (stream, subscribe) record
// their full connection lifetime — by design: that duration IS the
// serving cost of the request.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.httpMetrics.observe(endpoint, sw.code, time.Since(start))
	}
}
