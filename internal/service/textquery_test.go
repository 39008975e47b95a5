package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/wire"
	"ust/query"
)

// The acceptance path for the text query language, the one request
// encoding: the SAME query string must be accepted by the HTTP
// /v1/query envelope and by Service.Subscribe (via query.Parse), and
// must produce results identical to in-process evaluation.

const compoundText = "exists(states(0) @ [2,3]) and not forall(states(1,2) @ [1,2])"

func textTestService(t *testing.T) *Service {
	t.Helper()
	svc := New(Config{})
	t.Cleanup(svc.Close)
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	return svc
}

// envelope is a query envelope body addressing req, in its text form,
// to a dataset.
func envelope(t *testing.T, dataset string, req core.Request) []byte {
	t.Helper()
	q, err := wire.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.QueryEnvelope{Dataset: dataset, Query: string(q)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestTextQueryOverHTTP(t *testing.T) {
	svc := textTestService(t)
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	body := `{"dataset":"d","query":"` + compoundText + `"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text query: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}

	req, err := query.Parse(compoundText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewEngine(paperDB(t), core.Options{}).Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) == 0 || !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("results differ:\n  http       %+v\n  in-process %+v", got.Results, want.Results)
	}

	// Bad envelopes are 400s, not 500s; a member other than dataset and
	// query is one.
	for _, bad := range []string{
		`{"dataset":"d","query":"exsts(states(1) @ [1,2])"}`,
		`{"dataset":"d"}`,
		`{"dataset":"d","query":"exists(states(0) @ [1,2])","request":{"predicate":"exists"}}`,
		`{"dataset":"d","request":{"predicate":"exists","states":[0],"times":[1]}}`,
	} {
		r, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("bad envelope %s: status %d, want 400", bad, r.StatusCode)
		}
	}
}

// TestOverBudgetQueryIs400 sends a 36-byte query whose range would
// expand to 16 GB: the parser's id budget refuses it before expanding
// anything, the answer is a 400, and the server keeps serving.
func TestOverBudgetQueryIs400(t *testing.T) {
	svc := textTestService(t)
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	post := func(q string) (int, string) {
		t.Helper()
		body, err := json.Marshal(wire.QueryEnvelope{Dataset: "d", Query: q})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	hostile := "exists(states(0-2000000000) @ [0,1])"
	if len(hostile) != 36 {
		t.Fatalf("hostile query is %d bytes", len(hostile))
	}
	for range 3 {
		if code, body := post(hostile); code != http.StatusBadRequest || !strings.Contains(body, "ids") {
			t.Fatalf("over-budget query: status %d body %s, want 400 naming the id budget", code, body)
		}
	}
	if code, body := post("exists(states(0,1) @ [0,1])"); code != http.StatusOK {
		t.Fatalf("server stopped serving: status %d body %s", code, body)
	}
}

func TestTextQuerySubscribe(t *testing.T) {
	svc := textTestService(t)

	// In-process: Service.Subscribe accepts the parsed text query.
	req, err := query.Parse(compoundText)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Subscribe(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	first := <-sub.Updates()
	if !first.Full {
		t.Fatal("first update not a full snapshot")
	}
	fresh, err := svc.Evaluate(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Results) != len(fresh.Results) {
		t.Fatalf("snapshot %d results, fresh %d", len(first.Results), len(fresh.Results))
	}
	for i := range fresh.Results {
		if math.Abs(first.Results[i].Prob-fresh.Results[i].Prob) != 0 {
			t.Fatalf("snapshot result %d differs", i)
		}
	}

	// Over HTTP: the subscribe endpoint takes the same text envelope and
	// pushes the snapshot as its first NDJSON line.
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	body := `{"dataset":"d","query":"` + compoundText + `"}`
	httpReq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/subscribe", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var up wire.Update
	if err := json.Unmarshal(line, &up); err != nil {
		t.Fatalf("bad first update line %q: %v", line, err)
	}
	if !up.Full || len(up.Results) != len(fresh.Results) {
		t.Fatalf("HTTP snapshot: full=%v results=%d want %d", up.Full, len(up.Results), len(fresh.Results))
	}
}

// TestCompoundCoalescing pins that single-flight keying works for
// compound queries: the flight key is the expression's text form.
func TestCompoundCoalescing(t *testing.T) {
	svc := textTestService(t)
	req, err := query.Parse("exists(states(0) @ [2,3]) and exists(states(1) @ [1,3])")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := req.ExprHint(); !ok {
		t.Fatal("not a compound request")
	}
	ds, err := svc.dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	key1, ok1 := svc.flightKey(ds, req)
	key2, ok2 := svc.flightKey(ds, req)
	if !ok1 || !ok2 || key1 != key2 {
		t.Fatalf("compound flight keys unstable: %v %v", ok1, ok2)
	}
	// And a subscription over the compound query updates on ingest.
	sub, err := svc.Subscribe(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	<-sub.Updates() // snapshot
	obj, err := core.NewObject(99, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Track("d", obj); err != nil {
		t.Fatal(err)
	}
	select {
	case up, open := <-sub.Updates():
		if !open {
			t.Fatalf("subscription closed unexpectedly: %v", sub.Err())
		}
		_ = up // any refresh is fine; correctness of diffs is pinned elsewhere
	case <-time.After(5 * time.Second):
		t.Fatal("no update after ingest")
	}
}
