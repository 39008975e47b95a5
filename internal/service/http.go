package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/shard"
	"ust/internal/store"
	"ust/internal/wire"
)

// The HTTP/NDJSON front end over a Service. Routes (all bodies JSON
// unless noted):
//
//	GET    /healthz                     liveness
//	GET    /readyz                      readiness (startup load, drain)
//	GET    /metrics                     Prometheus text format
//	GET    /v1/datasets                 list datasets
//	GET    /v1/datasets/{name}          one dataset's info
//	PUT    /v1/datasets/{name}          create from binary store bytes
//	DELETE /v1/datasets/{name}          drop
//	POST   /v1/datasets/{name}/observe  ingest one observation (frame or JSON)
//	POST   /v1/datasets/{name}/objects  track a new object (frame or JSON)
//	POST   /v1/query                    batch query → wire.Response
//	POST   /v1/query/stream             query → NDJSON wire.StreamLine
//	POST   /v1/subscribe                standing query → NDJSON wire.Update
//	POST   /v1/factors                  aggregate factor decomposition
//	POST   /v1/datasets/{name}/import   migration batch (binary, ?gen=N)
//	POST   /v1/datasets/{name}/evict    migration eviction (wire.Evict)
//	POST   /v1/sweeps/acquire           sweep lease acquire (long-poll)
//	POST   /v1/sweeps/fill              publish payload under a lease
//	POST   /v1/sweeps/release           abandon a lease
//
// The two ingest routes read a body declared wire.ObservationFrameType
// as an observation frame (store.DecodeObservationFrame), which is what
// the Go client sends; every other body, curl -d's form content type
// included, is JSON (wire.Observation with an "object" member, or
// wire.Object). Both ground their pdfs through toObservation.
//
// Result bodies are appended by wire's hand codec into pooled buffers.
// Streaming responses batch their lines (see lineWriter); closing the
// connection cancels the evaluation (the request context propagates
// into the engine).

// maxRequestBody bounds JSON request bodies (dataset uploads are
// allowed maxUploadBody). streamWriteTimeout bounds each NDJSON flush:
// a client that stops reading gets its connection killed instead of
// pinning server resources — for /v1/query/stream that matters doubly,
// because the generator holds the dataset's read lock while streaming
// and a stalled reader would otherwise block ingest (and, through
// RWMutex writer priority, every other query on the dataset)
// indefinitely.
//
// streamFlushBytes and streamFlushAge are the stream flush policy: a
// /v1/query/stream line waits in a buffer until the buffer holds
// streamFlushBytes, until its oldest line is streamFlushAge old, or
// until a terminal (error or done) line goes out with it — one write
// and one flush per batch instead of per line, at the price of at most
// streamFlushAge before the first result of a slow stream is seen.
const (
	maxRequestBody     = 16 << 20
	maxUploadBody      = 1 << 30
	streamWriteTimeout = 30 * time.Second
	streamFlushBytes   = 16 << 10
	streamFlushAge     = 5 * time.Millisecond
)

// bodyBufs recycles the buffers result bodies and stream batches are
// encoded into; buffers grown past maxPooledBuf are left to the GC so
// one huge answer does not stay pinned.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

func putBodyBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		*bp = (*bp)[:0]
		bodyBufs.Put(bp)
	}
}

// lineWriter writes the NDJSON lines of one streaming response under
// the flush policy above. The handler's appends and the age timer's
// flushes are serialised by mu, so the ResponseWriter is only ever used
// by one goroutine at a time and never after close.
type lineWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
	fl http.Flusher

	mu       sync.Mutex
	buf      *[]byte     // lines not yet written
	timer    *time.Timer // flushes buf once its oldest line is streamFlushAge old
	over     bool        // a write failed or close ran: nothing more goes out
	panicked any         // a panic out of an age flush, re-raised on the handler's goroutine
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	lw := &lineWriter{w: w, rc: http.NewResponseController(w), buf: bodyBufs.Get().(*[]byte)}
	lw.fl, _ = w.(http.Flusher)
	return lw
}

// line appends the line enc encodes and applies the flush policy; flush
// sends it now, with every line before it. It reports false once the
// stream is over: the client went away or stalled past
// streamWriteTimeout, or the line could not be encoded.
func (lw *lineWriter) line(flush bool, enc func([]byte) ([]byte, error)) bool {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.repanic()
	if lw.over {
		return false
	}
	pending := len(*lw.buf) > 0
	buf, err := enc(*lw.buf)
	if err != nil {
		lw.flushLocked()
		lw.over = true
		return false
	}
	*lw.buf = buf
	switch {
	case flush || len(buf) >= streamFlushBytes:
		return lw.flushLocked()
	case pending:
	case lw.timer == nil:
		lw.timer = time.AfterFunc(streamFlushAge, lw.flushAged)
	default:
		lw.timer.Reset(streamFlushAge)
	}
	return true
}

// flushAged is the age timer's callback. A ResponseWriter may abort a
// response by panicking (http.ErrAbortHandler); net/http recovers that
// only on the handler's goroutine, so the panic is handed back there.
func (lw *lineWriter) flushAged() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.over {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			lw.panicked, lw.over = p, true
		}
	}()
	lw.flushLocked()
}

func (lw *lineWriter) repanic() {
	if p := lw.panicked; p != nil {
		lw.panicked = nil
		panic(p)
	}
}

// flushLocked writes and flushes the buffered lines under a fresh write
// deadline.
func (lw *lineWriter) flushLocked() bool {
	if lw.timer != nil {
		lw.timer.Stop()
	}
	if len(*lw.buf) == 0 {
		return true
	}
	lw.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)) //nolint:errcheck // unsupported writers just stay unbounded
	_, err := lw.w.Write(*lw.buf)
	*lw.buf = (*lw.buf)[:0]
	if err != nil {
		lw.over = true
		return false
	}
	if lw.fl != nil {
		lw.fl.Flush()
	}
	return true
}

// close ends the stream: a pending age flush is cancelled (lines still
// buffered are dropped — every completed stream ends with a flushed
// terminal line), a panic out of one is re-raised, and the write
// deadline is cleared so a keep-alive connection is not poisoned for its
// next request.
func (lw *lineWriter) close() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.over = true
	if lw.timer != nil {
		lw.timer.Stop()
	}
	lw.rc.SetWriteDeadline(time.Time{}) //nolint:errcheck
	putBodyBuf(lw.buf)
	lw.buf = nil
	lw.repanic()
}

// NewHandler builds the HTTP front end over svc. Every route is
// instrumented: handling latency lands in the per-endpoint, per-outcome
// ust_request_duration_seconds histogram and the per-status
// ust_http_requests_total counter, so client-observed latency (what an
// open-loop driver like ustload measures) can be correlated with
// server-observed handling time.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, svc.instrument(endpoint, h))
	}
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness ≠ readiness: the process answers /healthz from the
		// moment it listens, but /readyz only once startup loading is done
		// and until drain begins — the signal a load balancer or the
		// coordinator's worker probe should route on.
		if !svc.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Deliberately uninstrumented: scrapes must not perturb the
		// latency distributions they read.
		svc.writeMetrics(w)
	})
	handle("GET /v1/datasets", "datasets", func(w http.ResponseWriter, r *http.Request) {
		infos := svc.Datasets()
		out := make([]wire.DatasetInfo, len(infos))
		for i, in := range infos {
			out[i] = wireInfo(in)
		}
		writeJSON(w, http.StatusOK, out)
	})
	handle("GET /v1/datasets/{name}", "datasets", func(w http.ResponseWriter, r *http.Request) {
		info, err := svc.Info(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, wireInfo(info))
	})
	handle("PUT /v1/datasets/{name}", "datasets", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		image, err := readUpload(w, r, maxUploadBody)
		if err != nil {
			writeError(w, err)
			return
		}
		if err := svc.loadImage(name, image); err != nil {
			writeError(w, err)
			return
		}
		info, err := svc.Info(name)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, wireInfo(info))
	})
	handle("DELETE /v1/datasets/{name}", "datasets", func(w http.ResponseWriter, r *http.Request) {
		if err := svc.Drop(r.PathValue("name")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
	})
	handle("POST /v1/datasets/{name}/observe", "observe", svc.handleObserve)
	handle("POST /v1/datasets/{name}/objects", "track", svc.handleTrack)
	handle("POST /v1/query", "query", svc.handleQuery)
	handle("POST /v1/query/stream", "stream", svc.handleQueryStream)
	handle("POST /v1/subscribe", "subscribe", svc.handleSubscribe)
	handle("POST /v1/factors", "factors", svc.handleFactors)
	handle("POST /v1/datasets/{name}/import", "import", svc.handleImport)
	handle("POST /v1/datasets/{name}/evict", "evict", svc.handleEvict)
	handle("POST /v1/sweeps/acquire", "sweeps", svc.handleSweepAcquire)
	handle("POST /v1/sweeps/fill", "sweeps", svc.handleSweepFill)
	handle("POST /v1/sweeps/release", "sweeps", svc.handleSweepRelease)
	return mux
}

func wireInfo(in Info) wire.DatasetInfo {
	return wire.DatasetInfo{Name: in.Name, Objects: in.Objects, States: in.States, Version: in.Version}
}

// readUpload reads a binary request body of at most limit bytes. A
// longer body fails with ErrBodyTooLarge — never a truncated read handed
// on to be misreported as a corrupt image — and a declared
// Content-Length sizes the buffer exactly (store images are adopted by
// the dataset; a doubling read would pin up to twice the image).
func readUpload(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrBodyTooLarge, r.ContentLength, limit)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	var data []byte
	var err error
	if r.ContentLength >= 0 {
		data = make([]byte, r.ContentLength)
		_, err = io.ReadFull(body, data)
	} else {
		data, err = io.ReadAll(body)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, fmt.Errorf("%w: limit %d", ErrBodyTooLarge, limit)
	case err != nil:
		return nil, fmt.Errorf("%w: reading body: %v", wire.ErrDecode, err)
	}
	return data, nil
}

// readJSONBody reads a JSON request body of at most limit bytes — a
// longer one is refused with ErrBodyTooLarge, never truncated — and
// strictly decodes it.
func readJSONBody(w http.ResponseWriter, r *http.Request, limit int64, into any) error {
	body, err := readUpload(w, r, limit)
	if err != nil {
		return err
	}
	return wire.StrictUnmarshal(body, into)
}

// decodeEnvelope reads and strictly decodes a query envelope body: a
// dataset name and a request in the text query language. A body over
// maxRequestBody is refused with ErrBodyTooLarge.
func decodeEnvelope(w http.ResponseWriter, r *http.Request) (string, core.Request, error) {
	var env wire.QueryEnvelope
	if err := readJSONBody(w, r, maxRequestBody, &env); err != nil {
		return "", core.Request{}, err
	}
	req, err := wire.DecodeRequest([]byte(env.Query))
	if err != nil {
		return "", core.Request{}, err
	}
	return env.Dataset, req, nil
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	name, req, err := decodeEnvelope(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.Evaluate(r.Context(), name, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeEncoded(w, func(b []byte) ([]byte, error) { return wire.AppendResponse(b, resp) })
}

func (s *Service) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	name, req, err := decodeEnvelope(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	// An aggregate request's answer is one distribution, not a result
	// stream; serve it on this endpoint anyway (curl-friendly NDJSON) as
	// exactly one agg line followed by the done marker, going through
	// Evaluate so admission and single-flight coalescing apply.
	if _, isAgg := req.AggregateHint(); isAgg {
		resp, aerr := s.Evaluate(r.Context(), name, req)
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		out, aerr := wire.FromResponse(resp)
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		lw := newLineWriter(w)
		defer lw.close()
		if lw.line(false, streamLine(wire.StreamLine{Agg: out.Agg})) {
			lw.line(true, streamLine(wire.StreamLine{Done: true}))
		}
		return
	}
	// Pull the first element before committing the 200/NDJSON header:
	// request-level failures (unknown dataset, missing resolver,
	// admission timeout) surface as the stream's first yield and must
	// map to proper HTTP statuses, not a 200 with an error line.
	next, stop := iter.Pull2(s.Stream(r.Context(), name, req))
	defer stop()
	first, firstErr, ok := next()
	if ok && firstErr != nil {
		writeError(w, firstErr)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	lw := newLineWriter(w)
	defer lw.close()
	count := 0
	emit := func(res core.Result) bool {
		if !lw.line(false, func(b []byte) ([]byte, error) {
			wr := wire.FromResult(res)
			return wire.AppendStreamLine(b, wire.StreamLine{Result: &wr})
		}) {
			return false // client went away or stalled
		}
		count++
		return true
	}
	if ok {
		if !emit(first) {
			return
		}
		for {
			res, serr, more := next()
			if !more {
				break
			}
			if serr != nil {
				lw.line(true, streamLine(wire.StreamLine{Error: serr.Error()}))
				return
			}
			if !emit(res) {
				return
			}
		}
	}
	lw.line(true, streamLine(wire.StreamLine{Done: true, Count: count}))
}

// streamLine is the encoder of one fixed stream line.
func streamLine(sl wire.StreamLine) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return wire.AppendStreamLine(b, sl) }
}

func (s *Service) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name, req, err := decodeEnvelope(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	sub, err := s.Subscribe(r.Context(), name, req)
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	lw := newLineWriter(w)
	defer lw.close()
	for up := range sub.Updates() {
		head := wire.Update{Seq: up.Seq, Version: up.Version, Full: up.Full, Removed: up.Removed}
		if !lw.line(true, func(b []byte) ([]byte, error) { return wire.AppendUpdate(b, head, up.Results) }) {
			return // client went away or stalled
		}
	}
	if err := sub.Err(); err != nil {
		lw.line(true, func(b []byte) ([]byte, error) { return wire.AppendUpdate(b, wire.Update{Error: err.Error()}, nil) })
	}
}

func (s *Service) handleObserve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, obs, err := s.readIngest(w, r, name, func(body []byte) (int, []wire.Observation, error) {
		var payload struct {
			Object int `json:"object"`
			wire.Observation
		}
		err := wire.StrictUnmarshal(body, &payload)
		return payload.Object, []wire.Observation{payload.Observation}, err
	})
	if err == nil && len(obs) != 1 {
		err = fmt.Errorf("%w: an observe frame carries %d observations, want 1", wire.ErrDecode, len(obs))
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.Observe(name, id, obs[0]); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "observed"})
}

func (s *Service) handleTrack(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, obs, err := s.readIngest(w, r, name, func(body []byte) (int, []wire.Observation, error) {
		var payload wire.Object
		err := wire.StrictUnmarshal(body, &payload)
		return payload.ID, payload.Observations, err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	obj, err := core.NewObject(id, nil, obs...)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", wire.ErrDecode, err))
		return
	}
	if err := s.Track(name, obj); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "tracked"})
}

// readIngest reads the body of an observe or objects request: an object
// id and its observations, grounded against the named dataset's state
// space. A body that declares wire.ObservationFrameType is an
// observation frame; any other is JSON, which fromJSON decodes. Both
// build every pdf through toObservation, so a frame and its JSON twin
// ingest the same bits.
func (s *Service) readIngest(w http.ResponseWriter, r *http.Request, name string,
	fromJSON func(body []byte) (int, []wire.Observation, error)) (int, []core.Observation, error) {
	body, err := readUpload(w, r, maxRequestBody)
	if err != nil {
		return 0, nil, err
	}
	var id int
	var wobs []wire.Observation
	frame := isObservationFrame(r)
	if !frame {
		// JSON needs no state space: a malformed body is a 400 before
		// the dataset is looked up, as it always was.
		if id, wobs, err = fromJSON(body); err != nil {
			return 0, nil, err
		}
	}
	info, err := s.Info(name)
	if err != nil {
		return 0, nil, err
	}
	if frame {
		f, err := store.DecodeObservationFrame(body, info.States)
		if err != nil {
			return 0, nil, err
		}
		id = f.Object
		for _, fo := range f.Observations {
			wobs = append(wobs, wire.Observation{Time: fo.Time, States: fo.States, Probs: fo.Probs})
		}
	}
	obs := make([]core.Observation, len(wobs))
	for i, wo := range wobs {
		if obs[i], err = toObservation(info.States, wo); err != nil {
			return 0, nil, err
		}
	}
	return id, obs, nil
}

// isObservationFrame reports whether r's body is an observation frame:
// its declared media type, parameters aside, is wire.ObservationFrameType.
func isObservationFrame(r *http.Request) bool {
	mt, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	return strings.EqualFold(strings.TrimSpace(mt), wire.ObservationFrameType)
}

// handleFactors answers the distributed aggregate protocol: the factor
// decomposition of an aggregate request, for the coordinator to fold in
// canonical order across workers.
func (s *Service) handleFactors(w http.ResponseWriter, r *http.Request) {
	name, req, err := decodeEnvelope(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	fs, err := s.AggregateFactors(r.Context(), name, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeEncoded(w, func(b []byte) ([]byte, error) { return wire.AppendFactorSet(b, fs) })
}

// handleImport applies one migration batch: binary store bytes in the
// body, the generation fence in the ?gen query parameter.
func (s *Service) handleImport(w http.ResponseWriter, r *http.Request) {
	gen, err := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	if err != nil {
		writeError(w, fmt.Errorf("%w: bad gen parameter: %v", wire.ErrDecode, err))
		return
	}
	image, err := readUpload(w, r, maxUploadBody)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.ImportObjects(r.PathValue("name"), gen, image); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "imported"})
}

func (s *Service) handleEvict(w http.ResponseWriter, r *http.Request) {
	var ev wire.Evict
	if err := readJSONBody(w, r, maxRequestBody, &ev); err != nil {
		writeError(w, err)
		return
	}
	if err := s.EvictObjects(r.PathValue("name"), ev.Gen, ev.IDs); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "evicted"})
}

// --- sweep lease endpoints -------------------------------------------------
//
// The wire face of the SweepBoard. Acquire long-polls while another
// worker holds the lease — the connection going away cancels the wait
// through the request context, which is what lets a waiting worker fall
// back to local compute on its own deadline.

func (s *Service) handleSweepAcquire(w http.ResponseWriter, r *http.Request) {
	var req wire.SweepAcquire
	if err := readJSONBody(w, r, maxRequestBody, &req); err != nil {
		writeError(w, err)
		return
	}
	payload, lease, err := s.sweeps.Acquire(r.Context(), req.Key)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.SweepGrant{Payload: payload, Lease: lease})
}

func (s *Service) handleSweepFill(w http.ResponseWriter, r *http.Request) {
	var req wire.SweepFill
	if err := readJSONBody(w, r, s.sweeps.fillBodyLimit(), &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.sweeps.Fill(r.Context(), req.Key, req.Lease, req.Payload); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "filled"})
}

func (s *Service) handleSweepRelease(w http.ResponseWriter, r *http.Request) {
	var req wire.SweepRelease
	if err := readJSONBody(w, r, maxRequestBody, &req); err != nil {
		writeError(w, err)
		return
	}
	s.sweeps.Release(r.Context(), req.Key, req.Lease)
	writeJSON(w, http.StatusOK, map[string]string{"status": "released"})
}

// toObservation grounds a wire observation against a state-space size
// (the wire form is a sparse pdf without an explicit dimension).
func toObservation(numStates int, wo wire.Observation) (core.Observation, error) {
	pdf, err := markov.WeightedOver(numStates, wo.States, wo.Probs)
	if err != nil {
		return core.Observation{}, fmt.Errorf("%w: %v", wire.ErrDecode, err)
	}
	return core.Observation{Time: wo.Time, PDF: pdf}, nil
}

// writeError maps service/wire errors onto HTTP statuses with a JSON
// error body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownDataset):
		status = http.StatusNotFound
	case errors.Is(err, ErrDatasetExists), errors.Is(err, ErrStaleGeneration),
		errors.Is(err, ErrStaleLease):
		status = http.StatusConflict
	case errors.Is(err, ErrOverloaded):
		// 429, not 503: the server is up but admission control shed the
		// request — the signal an open-loop client should back off on,
		// and distinct from the retryable 5xx family (hammering an
		// overloaded server with retries makes the overload worse).
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrBodyTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, wire.ErrDecode), errors.Is(err, ErrNoResolver),
		errors.Is(err, ErrBadIngest), errors.Is(err, store.ErrCorrupt),
		errors.Is(err, core.ErrAggregateStream):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, wire.ErrorBody{Error: err.Error()})
}

// writeEncoded answers 200 with the JSON body enc appends, declared by
// Content-Length. A body that cannot be encoded is a 500.
func writeEncoded(w http.ResponseWriter, enc func([]byte) ([]byte, error)) {
	bp := bodyBufs.Get().(*[]byte)
	defer putBodyBuf(bp)
	body, err := enc(*bp)
	if err != nil {
		writeError(w, err)
		return
	}
	*bp = body
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // a client that went away has nobody to tell
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeMetrics emits the Prometheus text exposition of the service
// counters — including the single-flight coalescing counter that makes
// request deduplication observable from the outside.
func (s *Service) writeMetrics(w http.ResponseWriter) {
	st := s.Stats()
	cs := s.CacheStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	mf := func(name, help, typ string, v any, labels string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s%s %v\n", name, help, name, typ, name, labels, v)
	}
	role := s.cfg.Role
	if role == "" {
		role = "server"
	}
	mf("ust_role", "Deployment role of this process (server, coordinator, worker).", "gauge", 1,
		fmt.Sprintf("{role=\"%s\"}", promLabel(role)))
	mf("ust_ring_members", "Evaluation ring width (shards in-process, workers for a coordinator).", "gauge",
		s.ringMembers.Load(), "")
	if s.cfg.WorkerHealth != nil {
		if snap := s.cfg.WorkerHealth(); len(snap) > 0 {
			fmt.Fprintf(w, "# HELP ust_worker_healthy Probed worker liveness as seen by this coordinator (1 = serving reads).\n# TYPE ust_worker_healthy gauge\n")
			for _, wh := range snap {
				v := 0
				if wh.Healthy {
					v = 1
				}
				fmt.Fprintf(w, "ust_worker_healthy{worker=\"%s\"} %d\n", promLabel(wh.Worker), v)
			}
		}
	}
	mf("ust_requests_total", "Evaluation requests accepted.", "counter", st.Requests, "")
	mf("ust_singleflight_coalesced_total", "Requests answered by joining an identical in-flight evaluation.", "counter", st.Coalesced, "")
	mf("ust_evaluations_total", "Evaluations actually executed.", "counter", st.Evaluations, "")
	mf("ust_rejected_total", "Requests rejected by admission control.", "counter", st.Rejected, "")
	mf("ust_ingest_total", "Observation/object mutations.", "counter", st.Ingests, "")
	mf("ust_import_bytes_total", "Bytes of import frames applied (fleet writes and migration).", "counter", s.imports.bytes.Load(), "")
	mf("ust_import_objects_total", "Objects upserted through import frames.", "counter", s.imports.objects.Load(), "")
	fmt.Fprint(w, "# HELP ust_import_duration_seconds Time to decode and apply one import frame.\n# TYPE ust_import_duration_seconds histogram\n")
	s.imports.duration.write(w, "ust_import_duration_seconds", "")
	mf("ust_subscription_updates_total", "Subscription updates delivered.", "counter", st.Updates, "")
	mf("ust_subscriptions", "Active subscriptions.", "gauge", st.Subscriptions, "")
	mf("ust_in_flight", "Evaluations currently holding an admission slot.", "gauge", st.InFlight, "")
	board := func(prefix, what string, entries, bytes int, counters ...boardCounter) {
		for _, c := range counters {
			mf(prefix+"_"+c.name+"_total", what+" "+c.name+".", "counter", c.n, "")
		}
		mf(prefix+"_entries", what+" values resident.", "gauge", entries, "")
		mf(prefix+"_bytes", what+" bytes resident.", "gauge", bytes, "")
	}
	board("ust_score_cache", "Engine score cache, across datasets:", cs.Entries, cs.Bytes,
		boardCounter{"hits", cs.Hits}, boardCounter{"misses", cs.Misses}, boardCounter{"evictions", cs.Evictions})
	bs := s.sweeps.Stats()
	board("ust_sweep_board", "Sweep lease board:", bs.Entries, bs.Bytes,
		boardCounter{"leases", bs.Leases}, boardCounter{"fills", bs.Fills}, boardCounter{"served", bs.Served},
		boardCounter{"takeovers", bs.Takeovers}, boardCounter{"evictions", bs.Evictions})
	for _, info := range s.Datasets() {
		label := promLabel(info.Name)
		fmt.Fprintf(w, "ust_dataset_objects{dataset=\"%s\"} %d\n", label, info.Objects)
		fmt.Fprintf(w, "ust_dataset_version{dataset=\"%s\"} %d\n", label, info.Version)
		// A coordinator's datasets are served by a router over remote
		// shards; it counts the writes and migrations that did not reach
		// each one, and the replicas that missed one.
		ds, err := s.dataset(info.Name)
		if err != nil {
			continue
		}
		if router, ok := ds.engine.(*shard.Router); ok {
			status := router.ImportFailures()
			for _, l := range slices.Sorted(maps.Keys(status)) {
				fmt.Fprintf(w, "ust_shard_import_failures_total{dataset=\"%s\",shard=\"%d\"} %d\n", label, l, status[l].Failures)
				fmt.Fprintf(w, "ust_shard_stale_replicas{dataset=\"%s\",shard=\"%d\"} %d\n", label, l, status[l].StaleReplicas)
			}
		}
	}
	s.httpMetrics.write(w)
}

// boardCounter is one lifetime counter of a compute-once board (the
// engines' score cache, the sweep lease board) as /metrics names it.
type boardCounter struct {
	name string
	n    uint64
}

// promLabel escapes a label value per the Prometheus text exposition
// format (only \\, \" and \n are defined; Go's %q would emit escapes
// scrapers reject). Other control characters are dropped.
func promLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch {
		case r == '\\':
			b.WriteString(`\\`)
		case r == '"':
			b.WriteString(`\"`)
		case r == '\n':
			b.WriteString(`\n`)
		case r < 0x20 || r == 0x7f:
			// undefined in the exposition format; drop
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
