package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The admission limiter under sustained overload: requests beyond
// MaxConcurrent are rejected with ErrOverloaded (never queued past the
// deadline), the rejection surfaces as HTTP 429, and both the rejection
// counter and the outcome-labelled request metrics record it.
func TestOverloadReturns429AndIsCounted(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, DefaultTimeout: 25 * time.Millisecond})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 8), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	query := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	// A healthy query first, so the metrics later show the ok outcome
	// next to the overloaded one.
	if code, body := query(`{"dataset":"d","query":"exists(states(0,1) @ [2,3])"}`); code != http.StatusOK {
		t.Fatalf("healthy query: %d %s", code, body)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	testHookEvalStart = func() {
		enterOnce.Do(func() { close(entered) })
		<-release
	}
	defer func() { testHookEvalStart = nil }()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The holder occupies the only admission slot; its own outcome
		// (it outlives its deadline inside the hook) is irrelevant here.
		query(`{"dataset":"d","query":"exists(states(0,1) @ [2,3])"}`)
	}()
	<-entered

	// A saturated request races its own deadline against the admission
	// rejection (both fire at the default timeout), so one probe may
	// surface either; the 429 must show up within a few attempts, and
	// every attempt must be rejected — never queued behind the holder.
	saw429 := false
	for i := 0; i < 50 && !saw429; i++ {
		body := fmt.Sprintf(`{"dataset":"d","query":"exists(states(0,1) @ {%d})"}`, 4+i)
		code, respBody := query(body)
		switch code {
		case http.StatusTooManyRequests:
			saw429 = true
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(respBody), &eb); err != nil || !strings.Contains(eb.Error, "overloaded") {
				t.Fatalf("429 body %q does not name the overload", respBody)
			}
		case http.StatusOK:
			t.Fatalf("saturated query got through (attempt %d): %s", i, respBody)
		}
	}
	close(release)
	wg.Wait()
	if !saw429 {
		t.Fatal("no 429 observed across 50 saturated requests")
	}
	if rej := svc.Stats().Rejected; rej == 0 {
		t.Fatal("rejections not counted in Stats")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	metrics := string(data)
	for _, want := range []string{
		"ust_rejected_total",
		`ust_http_requests_total{endpoint="query",code="200"}`,
		`ust_http_requests_total{endpoint="query",code="429"}`,
		`ust_request_duration_seconds_bucket{endpoint="query",outcome="ok",le="+Inf"}`,
		`ust_request_duration_seconds_bucket{endpoint="query",outcome="overloaded",le="+Inf"}`,
		`ust_request_duration_seconds_count{endpoint="query",outcome="overloaded"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	// The scrape itself must not appear: /metrics is uninstrumented so
	// scrapes don't perturb the distributions they read.
	if strings.Contains(metrics, `endpoint="metrics"`) {
		t.Error("/metrics instrumented itself")
	}
}
