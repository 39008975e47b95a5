package service

// HTTP-layer tests for the endpoints the distributed deployment added:
// /readyz gating, role/ring-size metrics, factor fetches, the
// generation-fenced import/evict migration endpoints, ingest handlers,
// and the sweep lease tier over the wire.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/store"
	"ust/internal/wire"
)

func distTestServer(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	svc := New(cfg)
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() { svc.Close(); ts.Close() })
	return svc, ts.URL
}

// TestReadyzGate pins liveness ≠ readiness: /healthz always answers
// 200 while /readyz follows SetReady — 503 during startup load and
// drain, 200 in between.
func TestReadyzGate(t *testing.T) {
	svc, base := distTestServer(t, Config{})

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz: %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz while ready: %d", got)
	}
	svc.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while unready: %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz must stay live while unready: %d", got)
	}
	svc.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after recovery: %d", got)
	}
}

// TestMetricsRoleAndRing pins the deployment labels: ust_role carries
// the configured role, ust_ring_members the ring width.
func TestMetricsRoleAndRing(t *testing.T) {
	svc, base := distTestServer(t, Config{Role: "coordinator"})
	svc.SetRingMembers(3)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`ust_role{role="coordinator"} 1`, "ust_ring_members 3",
		// Both compute-once boards report through one helper.
		"ust_score_cache_hits_total 0", "ust_score_cache_misses_total 0", "ust_score_cache_evictions_total 0",
		"ust_score_cache_entries 0", "ust_score_cache_bytes 0",
		"ust_sweep_board_leases_total 0", "ust_sweep_board_fills_total 0", "ust_sweep_board_served_total 0",
		"ust_sweep_board_takeovers_total 0", "ust_sweep_board_evictions_total 0",
		"ust_sweep_board_entries 0", "ust_sweep_board_bytes 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestFactorsEndpoint fetches aggregate factors over HTTP and checks
// them against the engine's own factor set.
func TestFactorsEndpoint(t *testing.T) {
	_, base := distTestServer(t, Config{})
	req := core.NewAggRequest(core.PredicateExists, core.AggSpec{Kind: core.AggCount},
		core.WithStates([]int{0, 1}), core.WithTimes([]int{1, 2}))
	body := envelope(t, "d", req)
	resp, err := http.Post(base+"/v1/factors", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("factors: %d %s", resp.StatusCode, raw)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := wire.DecodeFactorSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewEngine(paperDB(t), core.Options{})
	want, err := ref.AggregateFactors(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Factors) != len(want.Factors) {
		t.Fatalf("factors over HTTP: %d, want %d", len(fs.Factors), len(want.Factors))
	}
	for i := range want.Factors {
		if fs.Factors[i].ID != want.Factors[i].ID {
			t.Fatalf("factor %d id %d, want %d", i, fs.Factors[i].ID, want.Factors[i].ID)
		}
	}
}

// TestImportEvictEndpoints drives the migration endpoints raw: a fenced
// import lands, a replayed generation 409s, an evict at a higher
// generation removes the object, and chains canonicalize by
// fingerprint (the imported object's chain equals the dataset default,
// so the worker keeps one chain group).
func TestImportEvictEndpoints(t *testing.T) {
	svc, base := distTestServer(t, Config{})

	chain, err := markov.FromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := core.NewDatabase(chain)
	batch.MustAdd(core.MustObject(500, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	var buf bytes.Buffer
	if err := store.SaveDatabase(&buf, batch); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()

	post := func(path string, ct string, body []byte) int {
		t.Helper()
		resp, err := http.Post(base+path, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/v1/datasets/d/import?gen=1", "application/octet-stream", image); got != http.StatusOK {
		t.Fatalf("import: %d", got)
	}
	info, err := svc.Info("d")
	if err != nil || info.Objects != 2 {
		t.Fatalf("after import: %+v err=%v", info, err)
	}
	// Replay: same generation must 409 and change nothing.
	if got := post("/v1/datasets/d/import?gen=1", "application/octet-stream", image); got != http.StatusConflict {
		t.Fatalf("replayed import: %d, want 409", got)
	}
	// Missing/garbled gen is a 400.
	if got := post("/v1/datasets/d/import?gen=x", "application/octet-stream", image); got != http.StatusBadRequest {
		t.Fatalf("bad gen: %d, want 400", got)
	}

	ev, _ := json.Marshal(wire.Evict{Gen: 2, IDs: []int{500}})
	if got := post("/v1/datasets/d/evict", "application/json", ev); got != http.StatusOK {
		t.Fatalf("evict: %d", got)
	}
	info, err = svc.Info("d")
	if err != nil || info.Objects != 1 {
		t.Fatalf("after evict: %+v err=%v", info, err)
	}
	// Evicting an unknown id fails without changing the fence direction.
	ev, _ = json.Marshal(wire.Evict{Gen: 3, IDs: []int{9999}})
	if got := post("/v1/datasets/d/evict", "application/json", ev); got/100 == 2 {
		t.Fatalf("evict of unknown id: %d, want error", got)
	}
}

// TestObserveTrackEndpoints covers the ingest handlers raw: track a new
// object, observe it again, and reject malformed bodies.
func TestObserveTrackEndpoints(t *testing.T) {
	svc, base := distTestServer(t, Config{})

	track := `{"id":700,"observations":[{"time":0,"states":[1],"probs":[1]}]}`
	resp, err := http.Post(base+"/v1/datasets/d/objects", "application/json", strings.NewReader(track))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("track: %d", resp.StatusCode)
	}
	obs := `{"object":700,"time":2,"states":[1],"probs":[1]}`
	resp, err = http.Post(base+"/v1/datasets/d/observe", "application/json", strings.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("observe: %d", resp.StatusCode)
	}
	info, err := svc.Info("d")
	if err != nil || info.Objects != 2 {
		t.Fatalf("after track: %+v err=%v", info, err)
	}
	resp, err = http.Post(base+"/v1/datasets/d/observe", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed observe: %d, want 400", resp.StatusCode)
	}
}

// TestSweepEndpoints drives the lease tier over raw HTTP: acquire
// grants a lease, fill publishes, a second acquire adopts the payload,
// and a stale fill 409s.
func TestSweepEndpoints(t *testing.T) {
	svc, base := distTestServer(t, Config{})
	key := core.SweepKey{Chain: 9, Kind: 1, Sig: 0xfeed, T0: 3}

	post := func(path string, in any, out any) int {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode
	}

	var grant wire.SweepGrant
	if got := post("/v1/sweeps/acquire", wire.SweepAcquire{Key: key}, &grant); got != http.StatusOK {
		t.Fatalf("acquire: %d", got)
	}
	if grant.Lease == "" || grant.Payload != nil {
		t.Fatalf("first acquire: %+v", grant)
	}
	payload := []byte{0x75, 9, 9}
	if got := post("/v1/sweeps/fill", wire.SweepFill{Key: key, Lease: grant.Lease, Payload: payload}, nil); got != http.StatusOK {
		t.Fatalf("fill: %d", got)
	}
	var adopted wire.SweepGrant
	if got := post("/v1/sweeps/acquire", wire.SweepAcquire{Key: key}, &adopted); got != http.StatusOK {
		t.Fatalf("second acquire: %d", got)
	}
	if adopted.Lease != "" || !bytes.Equal(adopted.Payload, payload) {
		t.Fatalf("adoption: %+v", adopted)
	}
	if got := post("/v1/sweeps/fill", wire.SweepFill{Key: key, Lease: "L999", Payload: payload}, nil); got != http.StatusConflict {
		t.Fatalf("stale fill: %d, want 409", got)
	}
	// Release of a fresh key's lease wakes nobody but must succeed.
	key2 := core.SweepKey{Chain: 9, Kind: 1, Sig: 0xbeef, T0: 4}
	var g2 wire.SweepGrant
	if got := post("/v1/sweeps/acquire", wire.SweepAcquire{Key: key2}, &g2); got != http.StatusOK {
		t.Fatalf("acquire key2: %d", got)
	}
	if got := post("/v1/sweeps/release", wire.SweepRelease{Key: key2, Lease: g2.Lease}, nil); got != http.StatusOK {
		t.Fatalf("release: %d", got)
	}
	if st := svc.Sweeps().Stats(); st.Fills != 1 || st.Served != 1 || st.Leases != 2 {
		t.Fatalf("board stats: %+v", st)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"ust_sweep_board_leases_total 2", "ust_sweep_board_fills_total 1",
		"ust_sweep_board_served_total 1", "ust_sweep_board_entries 1", "ust_sweep_board_bytes 3"} {
		if !strings.Contains(string(metrics), want+"\n") {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSweepFillBounds pins the two bounds on what a fill may make the
// coordinator hold. A body past the limit derived from the board's
// budget is refused with 413 — not silently truncated at 1 GiB and then
// misreported as a decode error. A payload that fits the body limit but
// not the board's whole budget is refused too, and its lease released,
// so a waiter computes locally at once instead of the board retaining
// what it could never hold beside anything else.
func TestSweepFillBounds(t *testing.T) {
	svc := New(Config{})
	svc.sweeps = NewSweepBoard(time.Minute, 1<<10) // TTL long enough that expiry cannot rescue the test
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() { svc.Close(); ts.Close() })
	key := core.SweepKey{Chain: 9, Kind: 1, Sig: 0xf111, T0: 3}

	fill := func(lease string, payloadBytes int) int {
		t.Helper()
		body, err := json.Marshal(wire.SweepFill{Key: key, Lease: lease, Payload: make([]byte, payloadBytes)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sweeps/fill", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	_, lease, err := svc.sweeps.Acquire(t.Context(), key)
	if err != nil || lease == "" {
		t.Fatalf("acquire: lease %q err %v", lease, err)
	}
	if got := fill(lease, 16<<10); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("fill body past the limit: %d, want 413", got)
	}
	if got := fill(lease, 2<<10); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("fill payload past the board budget: %d, want 413", got)
	}
	if st := svc.sweeps.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Fills != 0 {
		t.Fatalf("board retained an over-budget payload: %+v", st)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	if _, again, err := svc.sweeps.Acquire(ctx, key); err != nil || again == "" || again == lease {
		t.Fatalf("acquire after the refused fill: lease %q err %v, want a fresh lease at once", again, err)
	}
}
