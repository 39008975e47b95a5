package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	ust "ust"
	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/service"
	"ust/internal/store"
	"ust/internal/wire"
)

// ringStates is the state space of the ingest conformance dataset.
const ringStates = 16

// ringDB is a lazy walk on a ring of ringStates states with six objects
// seen at one state each at t=0.
func ringDB(t *testing.T) *core.Database {
	t.Helper()
	rows := make([][]float64, ringStates)
	for i := range rows {
		rows[i] = make([]float64, ringStates)
		rows[i][i] = 0.5
		rows[i][(i+1)%ringStates] += 0.25
		rows[i][(i+ringStates-1)%ringStates] += 0.25
	}
	chain, err := markov.FromDense(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(chain)
	for id := 0; id < 6; id++ {
		db.MustAdd(core.MustObject(id, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(ringStates, 2*id)}))
	}
	return db
}

// sighting is one observation as plain values: the states, ascending,
// and the weight on each.
type sighting struct {
	time   int
	states []int
	probs  []float64
}

// weighted is the pdf a receiver grounds s to.
func (s sighting) weighted(t *testing.T) core.Observation {
	t.Helper()
	pdf, err := markov.WeightedOver(ringStates, s.states, s.probs)
	if err != nil {
		t.Fatal(err)
	}
	return core.Observation{Time: s.time, PDF: pdf}
}

// descending is a pdf holding exactly s's values, built in descending
// state order: what the client sends is its ascending walk.
func (s sighting) descending() core.Observation {
	n := len(s.states)
	states, probs := make([]int32, n), make([]float64, n)
	for i := range s.states {
		states[n-1-i], probs[n-1-i] = int32(s.states[i]), s.probs[i]
	}
	return core.Observation{Time: s.time, PDF: markov.FromColumns(ringStates, states, probs)}
}

func (s sighting) wire() wire.Observation {
	return wire.Observation{Time: s.time, States: s.states, Probs: s.probs}
}

// TestIngestEncodingsAgree applies the same observations to four copies
// of one dataset — through Client.Observe/Track (observation frames), as
// raw JSON POSTs under application/json and under curl -d's form content
// type, and in process through Service.Observe/Track — and requires the
// stored images and the answers to be byte-identical. One pdf's weights
// sum to 1.3, so its normalization is inexact: frame and JSON must still
// ground it to the same bits. Bad frames are refused with 400 and leave
// the dataset version where it was.
func TestIngestEncodingsAgree(t *testing.T) {
	exact := sighting{time: 2, states: []int{2, 3, 4}, probs: []float64{0.25, 0.5, 0.25}}
	inexact := sighting{time: 3, states: []int{5, 6, 7, 9}, probs: []float64{0.1, 0.2, 0.3, 0.7}}
	tracked := []sighting{
		{time: 0, states: []int{1, 2, 11}, probs: []float64{1, 2, 0.7}},
		{time: 4, states: []int{3}, probs: []float64{1}},
	}
	const newID = 100

	type deployment struct {
		name string
		svc  *service.Service
		url  string
	}
	var deps []deployment
	for _, name := range []string{"frame", "json", "form", "inproc"} {
		svc := service.New(service.Config{})
		if err := svc.Create("d", ringDB(t), nil); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(service.NewHandler(svc))
		t.Cleanup(func() { svc.Close(); ts.Close() })
		deps = append(deps, deployment{name, svc, ts.URL})
	}
	ctx := context.Background()
	post := func(t *testing.T, url, path, contentType string, body []byte) int {
		t.Helper()
		resp, err := http.Post(url+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	postJSON := func(t *testing.T, url, contentType string) {
		t.Helper()
		for id, s := range map[int]sighting{1: exact, 4: inexact} {
			body, _ := json.Marshal(struct {
				Object int `json:"object"`
				wire.Observation
			}{id, s.wire()})
			if code := post(t, url, "/v1/datasets/d/observe", contentType, body); code != http.StatusOK {
				t.Fatalf("JSON observe under %s: %d", contentType, code)
			}
		}
		obj := wire.Object{ID: newID}
		for _, s := range tracked {
			obj.Observations = append(obj.Observations, s.wire())
		}
		body, _ := json.Marshal(obj)
		if code := post(t, url, "/v1/datasets/d/objects", contentType, body); code != http.StatusCreated {
			t.Fatalf("JSON track under %s: %d", contentType, code)
		}
	}
	for _, d := range deps {
		switch d.name {
		case "frame":
			c := New(d.url, nil)
			if err := c.Observe(ctx, "d", 1, exact.descending()); err != nil {
				t.Fatal(err)
			}
			if err := c.Observe(ctx, "d", 4, inexact.descending()); err != nil {
				t.Fatal(err)
			}
			o, err := ust.NewObject(newID, nil, tracked[0].descending(), tracked[1].descending())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Track(ctx, "d", o); err != nil {
				t.Fatal(err)
			}
		case "json":
			postJSON(t, d.url, "application/json")
		case "form":
			postJSON(t, d.url, "application/x-www-form-urlencoded")
		case "inproc":
			if err := d.svc.Observe("d", 1, exact.weighted(t)); err != nil {
				t.Fatal(err)
			}
			if err := d.svc.Observe("d", 4, inexact.weighted(t)); err != nil {
				t.Fatal(err)
			}
			o, err := core.NewObject(newID, nil, tracked[0].weighted(t), tracked[1].weighted(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.svc.Track("d", o); err != nil {
				t.Fatal(err)
			}
		}
	}

	image := func(d deployment) []byte {
		var buf bytes.Buffer
		if err := d.svc.Save("d", &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	reqs := []core.Request{
		core.NewRequest(core.PredicateExists, core.WithStates([]int{3, 4, 5, 6}), core.WithTimes([]int{2, 3, 4, 5})),
		core.NewRequest(core.PredicateForAll, core.WithStates([]int{1, 2, 3, 4, 5, 6, 7}), core.WithTimes([]int{1, 2, 3})),
		core.NewRequest(core.PredicateExists, core.WithStates([]int{8, 9, 10}), core.WithTimes([]int{1, 2, 3, 4, 5}), core.WithTopK(3)),
	}
	answers := func(d deployment) []byte {
		var out []byte
		for _, req := range reqs {
			resp, err := d.svc.Evaluate(ctx, "d", req)
			if err != nil {
				t.Fatal(err)
			}
			if out, err = wire.AppendResponse(out, resp); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	wantImage, wantAnswers := image(deps[3]), answers(deps[3])
	for _, d := range deps[:3] {
		if !bytes.Equal(image(d), wantImage) {
			t.Errorf("%s ingest stored a different image than in-process ingest", d.name)
		}
		if !bytes.Equal(answers(d), wantAnswers) {
			t.Errorf("%s ingest answers differ from in-process ingest", d.name)
		}
	}

	// Bad frames: each is a 400 and changes nothing.
	frame := deps[0]
	before, err := frame.svc.Info("d")
	if err != nil {
		t.Fatal(err)
	}
	valid, err := store.EncodeObservationFrame(2, []core.Observation{{Time: 5, PDF: markov.PointDistribution(ringStates, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 1
	nan, err := store.EncodeObservationFrame(2, []core.Observation{{Time: 5,
		PDF: markov.FromColumns(ringStates, []int32{3, 4}, []float64{0.5, math.NaN()})}})
	if err != nil {
		t.Fatal(err)
	}
	outside, err := store.EncodeObservationFrame(2, []core.Observation{{Time: 5, PDF: markov.PointDistribution(ringStates+1, ringStates)}})
	if err != nil {
		t.Fatal(err)
	}
	trailing := append(bytes.Clone(valid[:len(valid)-8]), 0)
	trailing = binary.LittleEndian.AppendUint32(trailing, 0xC5C5C5C5)
	trailing = binary.LittleEndian.AppendUint32(trailing, crc32.ChecksumIEEE(trailing[:len(trailing)-4]))
	twoObs, err := store.EncodeObservationFrame(2, []core.Observation{
		{Time: 5, PDF: markov.PointDistribution(ringStates, 3)},
		{Time: 6, PDF: markov.PointDistribution(ringStates, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"bad-crc": badCRC, "nan": nan, "state-outside": outside, "trailing": trailing, "two-observations": twoObs,
	} {
		if code := post(t, frame.url, "/v1/datasets/d/observe", wire.ObservationFrameType, bad); code != http.StatusBadRequest {
			t.Errorf("%s frame: %d, want 400", name, code)
		}
	}
	// A frame is read as one only under its own media type.
	if code := post(t, frame.url, "/v1/datasets/d/observe", "application/octet-stream", valid); code != http.StatusBadRequest {
		t.Errorf("frame under application/octet-stream: %d, want 400 (read as JSON)", code)
	}
	after, err := frame.svc.Info("d")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version {
		t.Fatalf("refused frames moved the dataset version %d → %d", before.Version, after.Version)
	}
	// The media type's parameters and case do not matter.
	if code := post(t, frame.url, "/v1/datasets/d/observe", "Application/VND.ust.observation-frame; v=1", valid); code != http.StatusOK {
		t.Fatalf("frame with a parameterized media type: %d, want 200", code)
	}
}
