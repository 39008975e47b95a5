package client

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	ust "ust"
	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/service"
	"ust/internal/spatial"
)

// TestRegionsOverTheWire sends polygon, union and difference regions in
// their text form through Query, QueryStream and Subscribe against one
// Service: each on its own, joined with states(...) and as an
// expression atom. Every answer must equal in-process Evaluate's, bit
// for bit.
func TestRegionsOverTheWire(t *testing.T) {
	db, res := conformance.NewDataset()
	svc := service.New(service.Config{})
	if err := svc.Create("g", db, res); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() { svc.Close(); ts.Close() })
	c := New(ts.URL, ts.Client())
	refDB, _ := conformance.NewDataset()
	ref := core.NewEngine(refDB, core.Options{})
	ctx := context.Background()

	triangle, err := spatial.NewPolygon([]spatial.Point{{X: 1, Y: 1}, {X: 6.5, Y: 1.2}, {X: 3.5, Y: 6}})
	if err != nil {
		t.Fatal(err)
	}
	regions := map[string]spatial.Region{
		"polygon": triangle,
		"union": spatial.Union{
			spatial.NewRect(0, 0, 2.5, 2.5),
			spatial.Circle{Center: spatial.Point{X: 6, Y: 6}, Radius: 1.6},
		},
		"difference": spatial.Difference{
			Base: spatial.NewRect(1, 1, 7, 7),
			Sub:  spatial.Circle{Center: spatial.Point{X: 4, Y: 4}, Radius: 2},
		},
	}
	window := core.WithTimes(core.Interval(4, 7))
	var checked int
	for name, region := range regions {
		for shape, req := range map[string]core.Request{
			"alone": core.NewRequest(core.PredicateExists, core.WithRegion(region, nil), window),
			"with states": core.NewRequest(core.PredicateExists, core.WithRegion(region, nil),
				core.WithStates([]int{0, 9, 63}), window),
			"atom": core.NewExprRequest(core.And(
				core.ExistsAtom(core.WithRegion(region, nil), core.WithTimes(core.Interval(4, 6))),
				core.Not(core.ForAllAtom(core.WithStates(core.Interval(16, 31)), core.WithTimes(core.Interval(7, 8)))))),
		} {
			label := fmt.Sprintf("%s/%s", name, shape)
			want, err := ref.Evaluate(ctx, req.AttachResolver(res))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(want.Results) == 0 {
				t.Fatalf("%s: empty reference answer", label)
			}
			got, err := c.Query(ctx, "g", req)
			if err != nil {
				t.Fatalf("%s: query: %v", label, err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Errorf("%s: query diverged:\n  remote %+v\n  local  %+v", label, got.Results, want.Results)
			}
			var streamed []ust.Result
			if err := c.QueryStream(ctx, "g", req, func(r ust.Result) error {
				streamed = append(streamed, r)
				return nil
			}); err != nil {
				t.Fatalf("%s: stream: %v", label, err)
			}
			if !reflect.DeepEqual(streamed, want.Results) {
				t.Errorf("%s: stream diverged:\n  remote %+v\n  local  %+v", label, streamed, want.Results)
			}
			sub, err := c.Subscribe(ctx, "g", req)
			if err != nil {
				t.Fatalf("%s: subscribe: %v", label, err)
			}
			select {
			case u, ok := <-sub.Updates():
				if !ok {
					t.Fatalf("%s: subscription closed before the snapshot: %v", label, sub.Err())
				}
				if !u.Full || !reflect.DeepEqual(u.Results, want.Results) {
					t.Errorf("%s: snapshot diverged:\n  remote %+v\n  local  %+v", label, u.Results, want.Results)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: no snapshot within 10s", label)
			}
			sub.Close()
			for range sub.Updates() {
			}
			checked++
		}
	}
	if checked != 9 {
		t.Fatalf("checked %d requests, want 9", checked)
	}
}
