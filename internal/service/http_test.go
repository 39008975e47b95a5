package service

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ust/internal/core"
	"ust/internal/wire"
)

// TestStreamStatusOnBadRequest pins that request-level failures on the
// streaming endpoint surface as proper HTTP statuses — the handler must
// not commit a 200/NDJSON header before validation.
func TestStreamStatusOnBadRequest(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cases := map[string]struct {
		body   string
		status int
	}{
		"unknown dataset":         {`{"dataset":"nope","query":"exists(states(0) @ {1})"}`, http.StatusNotFound},
		"region without resolver": {`{"dataset":"d","query":"exists(region(0,0,1,1) @ {1})"}`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.status)
		}
	}
}

// TestMetricsShowCoalescing pins the acceptance criterion end to end:
// N identical concurrent HTTP requests coalesce into one evaluation,
// and the dedup is observable in the /metrics single-flight counter.
func TestMetricsShowCoalescing(t *testing.T) {
	const followers = 5
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 8), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	testHookEvalStart = func() {
		enterOnce.Do(func() { close(entered) })
		<-release
	}
	defer func() { testHookEvalStart = nil }()

	body := `{"dataset":"d","query":"exists(states(0,1) @ [2,3])"}`
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("status %s: %s", resp.Status, data)
		}
		_, err = io.ReadAll(resp.Body)
		return err
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := post(); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-entered // leader holds the flight slot inside the evaluation
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := post(); err != nil {
				t.Errorf("follower: %v", err)
			}
		}()
	}
	waitFor(t, "followers to coalesce", func() bool {
		return svc.Stats().Coalesced == followers
	})
	close(release)
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("ust_singleflight_coalesced_total %d", followers),
		"ust_evaluations_total 1\n",
		fmt.Sprintf("ust_requests_total %d", followers+1),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestOversizedEnvelopeIs413 pins that every route taking a query
// envelope refuses a body over maxRequestBody as too large, instead of
// decoding a truncated prefix and reporting it as malformed. The body
// travels chunked, so the limit is enforced while reading, not from a
// declared length.
func TestOversizedEnvelopeIs413(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	body := bytes.Repeat([]byte("x"), maxRequestBody+1)
	copy(body, `{"dataset":"d","query":"`)
	copy(body[len(body)-2:], `"}`)
	for _, route := range []string{"/v1/query", "/v1/query/stream", "/v1/subscribe", "/v1/factors"} {
		resp, err := http.Post(ts.URL+route, "application/json", io.MultiReader(bytes.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d for a %d-byte envelope, want 413", route, resp.StatusCode, len(body))
		}
	}
}

// TestStreamFlushesAgedLine pins the age arm of the stream flush policy:
// a result line must not wait in the batch buffer while the engine is
// busy with the next one. The engine yields one result and then blocks;
// the line must reach the client well before the engine is released.
func TestStreamFlushesAgedLine(t *testing.T) {
	release := make(chan struct{})
	svc := New(Config{Engines: func(string, *core.Database) (Evaluator, Ingester, error) {
		return fakeEngine{first: core.Result{ObjectID: 7, Prob: 0.25}, release: release}, nil, nil
	}})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer close(release) // before ts.Close, which waits for the handler

	type line struct {
		data []byte
		err  error
	}
	got := make(chan line, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json",
			strings.NewReader(`{"dataset":"d","query":"exists(states(0) @ {1})"}`))
		if err != nil {
			got <- line{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := bufio.NewReader(resp.Body).ReadBytes('\n')
		got <- line{data, err}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain until the handler ends
	}()
	select {
	case l := <-got:
		if l.err != nil {
			t.Fatal(l.err)
		}
		sl, err := wire.DecodeStreamLine(l.data)
		if err != nil || sl.Result == nil || sl.Result.Object != 7 {
			t.Fatalf("first line %q (%v), want object 7's result", l.data, err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("the first result line did not arrive within 100 ms while the engine was busy")
	}
}

// abortingWriter aborts the response on its first write, the way a
// proxy or fault injector does: panic(http.ErrAbortHandler).
type abortingWriter struct {
	http.ResponseWriter
	once    *sync.Once
	aborted chan struct{}
}

func (w abortingWriter) Write([]byte) (int, error) {
	w.once.Do(func() { close(w.aborted) })
	panic(http.ErrAbortHandler)
}

// TestStreamAbortDuringAgedFlush pins that an abort raised by the
// ResponseWriter during an age flush — on the timer's goroutine, where
// net/http cannot recover it — is handed back to the handler: the
// connection is cut and the process survives.
func TestStreamAbortDuringAgedFlush(t *testing.T) {
	release := make(chan struct{})
	svc := New(Config{Engines: func(string, *core.Database) (Evaluator, Ingester, error) {
		return fakeEngine{first: core.Result{ObjectID: 7}, release: release}, nil, nil
	}})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	aborted := make(chan struct{})
	h := NewHandler(svc)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(abortingWriter{ResponseWriter: w, once: new(sync.Once), aborted: aborted}, r)
	}))
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json",
			strings.NewReader(`{"dataset":"d","query":"exists(states(0) @ {1})"}`))
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	<-aborted      // the age flush hit the abort while the engine is blocked
	close(release) // the handler's next line re-raises it
	if err := <-errc; err == nil {
		t.Fatal("the stream completed although its writer aborted")
	}
}
