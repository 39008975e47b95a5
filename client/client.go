// Package client is the Go client for a ustserve server: the remote
// twin of ust.Engine.Evaluate. Requests travel in their canonical text
// form (package ust/query) and results decode back to the exact float64
// bits the server computed, so a remote Query returns byte-identical
// results to in-process evaluation of the same request.
//
//	c := client.New("http://localhost:8080", nil)
//	resp, err := c.Query(ctx, "fleet", ust.NewRequest(ust.PredicateExists,
//		ust.WithStates([]int{100, 101}), ust.WithTimeRange(20, 25)))
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"ust"
	"ust/internal/store"
	"ust/internal/wire"
)

// Config tunes a Client beyond the defaults New applies.
type Config struct {
	// HTTPClient carries the transport; nil means http.DefaultClient,
	// unless a transport knob below is set, in which case New builds a
	// dedicated pooled transport.
	HTTPClient *http.Client
	// MaxIdleConnsPerHost widens the keep-alive connection pool toward
	// one host on the transport built when HTTPClient is nil (Go's
	// default keeps only 2 idle conns per host — an open-loop driver
	// firing hundreds of concurrent requests at one server would churn
	// through ephemeral ports without this).
	MaxIdleConnsPerHost int
	// ResponseHeaderTimeout bounds the wait for response headers per
	// attempt on the built transport. Streaming bodies are unaffected,
	// so subscriptions stay long-lived; per-request deadlines still come
	// from the caller's context. 0 means no transport-level bound.
	ResponseHeaderTimeout time.Duration
	// MaxRetries is the number of ADDITIONAL attempts after a failed
	// first one, applied only to idempotent requests (queries, factor
	// fetches, GETs) on transport errors and 5xx statuses. Ingest
	// (Observe, Track, CreateDataset, Import, Evict) is never retried —
	// a request that died mid-flight may still have been applied. 0
	// disables retrying.
	MaxRetries int
	// RetryBase is the first backoff delay; each further attempt doubles
	// it, capped at RetryMax, with ±25% jitter. Defaults: 50ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
}

// Client talks to one ustserve base URL. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	cfg  Config
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"). hc may be nil for http.DefaultClient. No
// retrying; use NewWithConfig for that.
func New(baseURL string, hc *http.Client) *Client {
	return NewWithConfig(baseURL, Config{HTTPClient: hc})
}

// NewWithConfig builds a client with explicit retry/transport settings.
func NewWithConfig(baseURL string, cfg Config) *Client {
	if cfg.HTTPClient == nil {
		if cfg.MaxIdleConnsPerHost > 0 || cfg.ResponseHeaderTimeout > 0 {
			perHost := cfg.MaxIdleConnsPerHost
			if perHost <= 0 {
				perHost = 2 // the net/http default
			}
			cfg.HTTPClient = &http.Client{Transport: &http.Transport{
				Proxy:                 http.ProxyFromEnvironment,
				MaxIdleConns:          max(100, 2*perHost),
				MaxIdleConnsPerHost:   perHost,
				IdleConnTimeout:       90 * time.Second,
				ResponseHeaderTimeout: cfg.ResponseHeaderTimeout,
			}}
		} else {
			cfg.HTTPClient = http.DefaultClient
		}
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: cfg.HTTPClient, cfg: cfg}
}

// APIError is a non-2xx server response: the HTTP status code plus the
// server's error message.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("client: server returned %d", e.Status)
}

// ServerStreamError is an error the server reported mid-stream: the
// evaluation itself failed on the server, as opposed to the connection
// being cut (which surfaces as a plain error). Evaluation is
// deterministic, so callers implementing replica failover must not
// retry a ServerStreamError elsewhere — it reproduces identically.
type ServerStreamError struct {
	Msg string
}

func (e *ServerStreamError) Error() string {
	return fmt.Sprintf("client: server error mid-stream: %s", e.Msg)
}

// apiError converts a non-2xx response into an *APIError carrying the
// server's message.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	e := &APIError{Status: resp.StatusCode}
	var eb wire.ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		e.Msg = eb.Error
	}
	return e
}

// attempt runs one HTTP exchange. body may be nil.
func (c *Client) attempt(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp)
	}
	return resp, nil
}

// retryable reports whether an attempt's failure may be retried:
// transport errors (connection refused, reset — the server may be
// restarting) and 5xx statuses. 4xx statuses are the caller's mistake
// and context expiry is the caller's deadline; neither retries.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	return true // transport-level failure
}

// do runs the exchange, retrying idempotent requests per the client's
// Config with exponential backoff and jitter.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, idempotent bool) (*http.Response, error) {
	retries := 0
	if idempotent {
		retries = c.cfg.MaxRetries
	}
	var lastErr error
	for att := 0; ; att++ {
		resp, err := c.attempt(ctx, method, path, contentType, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if att >= retries || !retryable(ctx, err) {
			return nil, lastErr
		}
		d := backoff(c.cfg.RetryBase, c.cfg.RetryMax, att)
		d = time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, lastErr
		case <-t.C:
		}
	}
}

// backoff is the exponential delay before retry attempt att: base·2^att
// saturated at limit. The shift is clamped — base<<att overflows
// time.Duration once att is large enough (a caller setting MaxRetries
// in the hundreds), and an overflowed negative/zero delay would turn
// backoff into a hot retry loop.
func backoff(base, limit time.Duration, att int) time.Duration {
	// base·2^att > limit ⟺ base > limit>>att (exact for positive ints;
	// Go shifts by ≥ 64 yield 0, so huge att saturates too).
	if att < 0 || base <= 0 || uint(att) > 62 || base > limit>>uint(att) {
		return limit
	}
	return base << uint(att)
}

func (c *Client) doJSON(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = data
	}
	resp, err := c.do(ctx, method, path, "application/json", body, idempotent)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil, true)
}

// Ready checks /readyz: nil exactly when the server finished its
// startup load and is not draining.
func (c *Client) Ready(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/readyz", nil, nil, true)
}

// Metrics fetches the raw Prometheus exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", "", nil, true)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

func toInfo(in wire.DatasetInfo) ust.DatasetInfo {
	return ust.DatasetInfo{Name: in.Name, Objects: in.Objects, States: in.States, Version: in.Version}
}

// Datasets lists the server's datasets.
func (c *Client) Datasets(ctx context.Context) ([]ust.DatasetInfo, error) {
	var infos []wire.DatasetInfo
	if err := c.doJSON(ctx, http.MethodGet, "/v1/datasets", nil, &infos, true); err != nil {
		return nil, err
	}
	out := make([]ust.DatasetInfo, len(infos))
	for i, in := range infos {
		out[i] = toInfo(in)
	}
	return out, nil
}

// Dataset describes one named dataset.
func (c *Client) Dataset(ctx context.Context, name string) (ust.DatasetInfo, error) {
	var in wire.DatasetInfo
	if err := c.doJSON(ctx, http.MethodGet, "/v1/datasets/"+name, nil, &in, true); err != nil {
		return ust.DatasetInfo{}, err
	}
	return toInfo(in), nil
}

// CreateDataset uploads a database in the binary store format (what
// ust.SaveDatabase / ustgen write) under the given name. Never retried:
// a create that died mid-flight may still have registered.
func (c *Client) CreateDataset(ctx context.Context, name string, data io.Reader) (ust.DatasetInfo, error) {
	image, err := io.ReadAll(data)
	if err != nil {
		return ust.DatasetInfo{}, err
	}
	resp, err := c.do(ctx, http.MethodPut, "/v1/datasets/"+name, "application/octet-stream", image, false)
	if err != nil {
		return ust.DatasetInfo{}, err
	}
	defer resp.Body.Close()
	var in wire.DatasetInfo
	if derr := json.NewDecoder(resp.Body).Decode(&in); derr != nil {
		return ust.DatasetInfo{}, fmt.Errorf("client: decoding response: %w", derr)
	}
	return toInfo(in), nil
}

// DropDataset removes the named dataset.
func (c *Client) DropDataset(ctx context.Context, name string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/datasets/"+name, nil, nil, false)
}

// Observe ingests one observation for an existing object. It travels
// as an observation frame (store.EncodeObservationFrame).
func (c *Client) Observe(ctx context.Context, dataset string, objectID int, obs ust.Observation) error {
	return c.postFrame(ctx, "/v1/datasets/"+dataset+"/observe", objectID, []ust.Observation{obs})
}

// Track registers a brand-new object (default motion model; objects
// with a private chain cannot travel over the wire). Its observations
// travel as one observation frame.
func (c *Client) Track(ctx context.Context, dataset string, o *ust.Object) error {
	if o.Chain != nil {
		return fmt.Errorf("client: objects with a private chain cannot be tracked remotely")
	}
	return c.postFrame(ctx, "/v1/datasets/"+dataset+"/objects", o.ID, o.Observations)
}

// postFrame sends object id's observations to path as an observation
// frame. Never retried: ingest that died mid-flight may have applied.
func (c *Client) postFrame(ctx context.Context, path string, id int, obs []ust.Observation) error {
	frame, err := store.EncodeObservationFrame(id, obs)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, path, wire.ObservationFrameType, frame, false)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return nil
}

// queryEnvelope addresses a request to a dataset, in its canonical text
// form (see package ust/query).
func queryEnvelope(dataset string, req ust.Request) ([]byte, error) {
	q, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	return textEnvelope(dataset, string(q))
}

// textEnvelope addresses a text-language query to a dataset; the server
// parses it.
func textEnvelope(dataset, query string) ([]byte, error) {
	return json.Marshal(wire.QueryEnvelope{Dataset: dataset, Query: query})
}

// Query evaluates one batch request remotely. The returned Response
// carries the same results, strategy, planner estimates and
// cache/filter reports as an in-process Evaluate on the server's
// engine.
func (c *Client) Query(ctx context.Context, dataset string, req ust.Request) (*ust.Response, error) {
	body, err := queryEnvelope(dataset, req)
	if err != nil {
		return nil, err
	}
	return c.postQuery(ctx, body)
}

// QueryText evaluates a text-language query (see package ust/query)
// remotely — the server parses it, so any client that can send a
// string can ask compound questions:
//
//	c.QueryText(ctx, "fleet",
//		"exists(states(100-120) @ [20,25]) and not forall(states(7) @ [5,9]) where tau=0.3")
func (c *Client) QueryText(ctx context.Context, dataset, queryText string) (*ust.Response, error) {
	body, err := textEnvelope(dataset, queryText)
	if err != nil {
		return nil, err
	}
	return c.postQuery(ctx, body)
}

func (c *Client) postQuery(ctx context.Context, body []byte) (*ust.Response, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/query", "application/json", body, true)
	if err != nil {
		return nil, err
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResponse(data)
}

// maxSizedBody bounds the read buffer a declared Content-Length may size
// up front; a longer (or undeclared) body grows as it arrives, so a
// lying header cannot make the client allocate more than it receives.
const maxSizedBody = 64 << 20

// readBody reads and closes a response body, in one exactly sized read
// when the server declared its length.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	if n := resp.ContentLength; n > 0 && n <= maxSizedBody {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(resp.Body)
}

// Factors fetches the factor decomposition of an aggregate request —
// the distributed aggregate protocol: a coordinator pools workers'
// factors and folds them in canonical order, because pooling per-shard
// PMFs would break byte-identity with a single engine.
func (c *Client) Factors(ctx context.Context, dataset string, req ust.Request) (*ust.FactorSet, error) {
	body, err := queryEnvelope(dataset, req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/factors", "application/json", body, true)
	if err != nil {
		return nil, err
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	return wire.DecodeFactorSet(data)
}

// ImportObjects applies one migration batch to a worker dataset: store
// bytes under a strictly increasing generation fence. Never retried — a
// replay is rejected server-side with 409.
func (c *Client) ImportObjects(ctx context.Context, dataset string, gen uint64, image []byte) error {
	path := fmt.Sprintf("/v1/datasets/%s/import?gen=%d", dataset, gen)
	resp, err := c.do(ctx, http.MethodPost, path, "application/octet-stream", image, false)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// EvictObjects removes object ids from a worker dataset under the same
// generation fence as ImportObjects. Never retried.
func (c *Client) EvictObjects(ctx context.Context, dataset string, gen uint64, ids []int) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/datasets/"+dataset+"/evict",
		wire.Evict{Gen: gen, IDs: ids}, nil, false)
}

// QueryStream evaluates one request remotely with NDJSON streaming,
// calling yield for each result as the server produces it. A yield
// error stops the stream and is returned. The stream must end with the
// server's done marker — a connection cut mid-stream is an error, never
// a silent truncation.
func (c *Client) QueryStream(ctx context.Context, dataset string, req ust.Request, yield func(ust.Result) error) error {
	if _, isAgg := req.AggregateHint(); isAgg {
		// The server would answer with a single distribution line the
		// per-result yield cannot deliver; fail fast with the same
		// sentinel the in-process streaming entry points use.
		return fmt.Errorf("client: aggregate requests answer as one distribution; use Query: %w", ust.ErrAggregateStream)
	}
	body, err := queryEnvelope(dataset, req)
	if err != nil {
		return err
	}
	// Retrying the OPEN is safe (no line has been consumed yet); once
	// streaming begins, a cut surfaces as the missing done marker.
	resp, err := c.do(ctx, http.MethodPost, "/v1/query/stream", "application/json", body, true)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	lr := lineReader{br: bufio.NewReader(resp.Body)}
	for {
		line, rerr := lr.next()
		if len(line) > 0 {
			sl, err := wire.DecodeStreamLine(line)
			if err != nil {
				return fmt.Errorf("client: bad stream line: %w", err)
			}
			switch {
			case sl.Error != "":
				return &ServerStreamError{Msg: sl.Error}
			case sl.Done:
				return nil
			case sl.Result != nil:
				if err := yield(sl.Result.ToResult()); err != nil {
					return err
				}
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				return fmt.Errorf("client: stream: %w", rerr)
			}
			return fmt.Errorf("client: stream ended without a done marker")
		}
	}
}

// lineReader reads NDJSON lines of arbitrary length (a subscription
// snapshot is a single line carrying the full result set, so no fixed
// per-line cap is safe). A line that fits the bufio.Reader's buffer is
// returned in place; a longer one is assembled in long, which grows to
// the longest line seen. Either way the line is valid only until the
// next call.
type lineReader struct {
	br   *bufio.Reader
	long []byte
}

// next returns the next line, trimmed of surrounding whitespace.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	return bytes.TrimSpace(line), err
}

// Subscription is a client-side standing query: updates pushed by the
// server arrive on Updates(). Close (or cancelling the Subscribe
// context) ends it.
type Subscription struct {
	updates chan ust.Update
	cancel  context.CancelFunc

	mu  sync.Mutex
	err error
}

// Updates delivers the server's pushes, starting with the full
// snapshot. Closed when the subscription ends; check Err afterwards.
func (s *Subscription) Updates() <-chan ust.Update { return s.updates }

// Err reports why the subscription ended (nil on clean close/cancel).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close terminates the subscription.
func (s *Subscription) Close() { s.cancel() }

// Subscribe registers a standing query on the server; incremental
// updates stream back over NDJSON as the dataset ingests observations.
func (c *Client) Subscribe(ctx context.Context, dataset string, req ust.Request) (*Subscription, error) {
	body, err := queryEnvelope(dataset, req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	resp, err := c.do(ctx, http.MethodPost, "/v1/subscribe", "application/json", body, false)
	if err != nil {
		cancel()
		return nil, err
	}
	sub := &Subscription{updates: make(chan ust.Update), cancel: cancel}
	go func() {
		defer close(sub.updates)
		defer resp.Body.Close()
		defer cancel()
		lr := lineReader{br: bufio.NewReader(resp.Body)}
		for {
			line, rerr := lr.next()
			if len(line) > 0 {
				wu, err := wire.DecodeUpdate(line)
				if err != nil {
					sub.fail(fmt.Errorf("client: bad update line: %w", err))
					return
				}
				if wu.Error != "" {
					sub.fail(fmt.Errorf("client: subscription error: %s", wu.Error))
					return
				}
				up := ust.Update{
					Seq:     wu.Seq,
					Version: wu.Version,
					Full:    wu.Full,
					Results: wire.ToResults(wu.Results),
					Removed: wu.Removed,
				}
				select {
				case sub.updates <- up:
				case <-ctx.Done():
					return
				}
			}
			if rerr != nil {
				if rerr != io.EOF && ctx.Err() == nil {
					sub.fail(fmt.Errorf("client: subscription stream: %w", rerr))
				}
				return
			}
		}
	}()
	return sub, nil
}

func (s *Subscription) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}
