package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"ust/internal/core"
	"ust/internal/markov"
)

// obsStates is the state space the observation-frame tests decode over.
const obsStates = 64

// obsFrame encodes obs as the frame of object id.
func obsFrame(t testing.TB, id int, obs ...core.Observation) []byte {
	t.Helper()
	frame, err := EncodeObservationFrame(id, obs)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// sealedSection wraps section — a tag and its payload — in a version-2
// envelope of one section.
func sealedSection(section ...[]byte) []byte {
	out := newWriter(len(bytes.Join(section, nil)), formatVersion2, 1)
	for _, p := range section {
		out.raw(p)
	}
	image, _ := out.finish()
	return image
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// badObservationFrames are frames every decoder over obsStates states
// must refuse with ErrCorrupt, by name.
func badObservationFrames(t testing.TB) []struct {
	name  string
	frame []byte
} {
	prob := func(p float64) []byte {
		return obsFrame(t, 3, core.Observation{Time: 2, PDF: markov.FromColumns(obsStates, []int32{1, 5}, []float64{0.5, p})})
	}
	valid := prob(0.5)
	trailing := append(bytes.Clone(valid[:len(valid)-footerLen]), 0, 0, 0, 0, 0, 0, 0, 0)
	trailing = append(trailing, make([]byte, footerLen)...)
	reseal(trailing)
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 0x01
	twoSections := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(twoSections[8:], 2)
	reseal(twoSections)
	id := binary.AppendVarint(nil, 3)
	return []struct {
		name  string
		frame []byte
	}{
		{"nan", prob(math.NaN())},
		{"plus-inf", prob(math.Inf(1))},
		{"minus-inf", prob(math.Inf(-1))},
		{"negative", prob(-0.25)},
		{"state-equals-S", obsFrame(t, 3, core.Observation{Time: 2,
			PDF: markov.FromColumns(obsStates+1, []int32{1, obsStates}, []float64{0.5, 0.5})})},
		{"empty-pdf", sealedSection(tagObservations[:], id, uvarints(1, 2, 0), make([]byte, 16))},
		{"duplicate-state", sealedSection(tagObservations[:], id, uvarints(1, 2, 2, 4, 0), make([]byte, 16))},
		{"count-past-bytes", sealedSection(tagObservations[:], id, uvarints(1000, 2, 1, 4), make([]byte, 8))},
		{"support-past-bytes", sealedSection(tagObservations[:], id, uvarints(1, 2, 1000, 4), make([]byte, 8))},
		{"truncated", valid[:len(valid)-3]},
		{"truncated-resealed", func() []byte {
			cut := append(bytes.Clone(valid[:len(valid)-footerLen-5]), make([]byte, footerLen)...)
			reseal(cut)
			return cut
		}()},
		{"trailing-bytes", trailing},
		{"bad-crc", badCRC},
		{"two-sections", twoSections},
		{"database-image", saveV2(t, testDB(t))},
	}
}

// TestObservationFrameRoundTrip decodes what the encoder writes for
// every pdf mode — a point, a sparse pdf in insertion order, a dense one
// and a full-support one — to the entries RangeAscending visits, bit for
// bit, with the object id and times intact.
func TestObservationFrameRoundTrip(t *testing.T) {
	full := make([]float64, obsStates)
	for i := range full {
		full[i] = float64(i+1) / 3
	}
	fullIDs := make([]int, obsStates)
	for i := range fullIDs {
		fullIDs[i] = i
	}
	dense, err := markov.WeightedOver(obsStates, fullIDs, full)
	if err != nil {
		t.Fatal(err)
	}
	obs := []core.Observation{
		{Time: 0, PDF: markov.PointDistribution(obsStates, obsStates-1)},
		{Time: 3, PDF: markov.FromColumns(obsStates, []int32{40, 7, 12}, []float64{0.1, 0.7, 0.2})},
		{Time: 1 << 40, PDF: dense},
		{Time: 9, PDF: markov.UniformOver(obsStates, []int{0, 63, 31})},
	}
	for _, id := range []int{0, -17, math.MaxInt64} {
		f, err := DecodeObservationFrame(obsFrame(t, id, obs...), obsStates)
		if err != nil {
			t.Fatal(err)
		}
		if f.Object != id || len(f.Observations) != len(obs) {
			t.Fatalf("decoded object %d with %d observations, want %d with %d", f.Object, len(f.Observations), id, len(obs))
		}
		for k, ob := range obs {
			got := f.Observations[k]
			var states []int
			var probs []float64
			ob.PDF.RangeAscending(func(s int, p float64) {
				states = append(states, s)
				probs = append(probs, p)
			})
			if got.Time != ob.Time || len(got.States) != len(states) || len(got.Probs) != len(probs) {
				t.Fatalf("observation %d: t=%d, %d states, %d probs; want t=%d, %d", k, got.Time, len(got.States), len(got.Probs), ob.Time, len(states))
			}
			for j := range states {
				if got.States[j] != states[j] || math.Float64bits(got.Probs[j]) != math.Float64bits(probs[j]) {
					t.Fatalf("observation %d entry %d: (%d, %v), want (%d, %v)", k, j, got.States[j], got.Probs[j], states[j], probs[j])
				}
			}
		}
	}
}

// TestObservationFrameOrderFree pins that the encoder reads a pdf in
// ascending state order: a sparse pdf built in descending state order
// and its ascending twin give the same frame.
func TestObservationFrameOrderFree(t *testing.T) {
	const k = 1000
	desc, asc := make([]int32, k), make([]int32, k)
	descP, ascP := make([]float64, k), make([]float64, k)
	for i := 0; i < k; i++ {
		s := int32(7 * i)
		asc[i], ascP[i] = s, float64(i+1)
		desc[k-1-i], descP[k-1-i] = s, float64(i+1)
	}
	a := obsFrame(t, 4, core.Observation{Time: 5, PDF: markov.FromColumns(10*k, asc, ascP)})
	d := obsFrame(t, 4, core.Observation{Time: 5, PDF: markov.FromColumns(10*k, desc, descP)})
	if !bytes.Equal(a, d) {
		t.Fatal("descending-built pdf and its ascending twin encode to different frames")
	}
}

// TestObservationFrameEncodeRejects covers what the encoder refuses
// rather than send: a nil pdf, a negative time and a pdf with no mass
// entries.
func TestObservationFrameEncodeRejects(t *testing.T) {
	for name, ob := range map[string]core.Observation{
		"nil-pdf":       {Time: 1},
		"negative-time": {Time: -1, PDF: markov.PointDistribution(obsStates, 1)},
		"empty":         {Time: 1, PDF: markov.NewDistribution(obsStates)},
	} {
		if _, err := EncodeObservationFrame(1, []core.Observation{ob}); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestObservationFrameRejects runs the named bad frames through the
// decoder: each must fail with ErrCorrupt.
func TestObservationFrameRejects(t *testing.T) {
	for _, bad := range badObservationFrames(t) {
		t.Run(bad.name, func(t *testing.T) {
			if _, err := DecodeObservationFrame(bad.frame, obsStates); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decoded with %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzDecodeObservationFrame hammers the observation-frame decoder —
// what a server runs on every frame-encoded observe or objects body —
// with arbitrary bytes, each input as given and re-sealed (see
// resealed). Seeds: valid frames, and the named bad frames (NaN, ±Inf
// and negative probabilities, state = |S|, an empty pdf, counts past the
// bytes present, truncations, trailing bytes, a bad CRC). The contract:
// never panic; failures are ErrCorrupt; an accepted frame holds at
// least one observation, each a non-empty ascending support inside [0,
// |S|) with a finite, non-negative probability per state; decoding
// allocates within decodeAllocLimit.
func FuzzDecodeObservationFrame(f *testing.F) {
	f.Add(obsFrame(f, 3, core.Observation{Time: 2, PDF: markov.UniformOver(obsStates, []int{0, 9, 63})}))
	f.Add(obsFrame(f, -8,
		core.Observation{Time: 0, PDF: markov.PointDistribution(obsStates, 5)},
		core.Observation{Time: 4, PDF: markov.FromColumns(obsStates, []int32{30, 2}, []float64{0.25, 0.75})}))
	for _, bad := range badObservationFrames(f) {
		f.Add(bad.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, image := range resealed(data) {
			var got ObservationFrame
			var err error
			decodeWithin(t, image, func() { got, err = DecodeObservationFrame(image, obsStates) })
			if err != nil {
				inContract(t, err, ErrCorrupt)
				continue
			}
			if len(got.Observations) == 0 {
				t.Fatal("accepted a frame with no observations")
			}
			for _, o := range got.Observations {
				if len(o.States) == 0 || len(o.States) != len(o.Probs) {
					t.Fatalf("accepted %d states with %d probabilities", len(o.States), len(o.Probs))
				}
				for j, s := range o.States {
					if s < 0 || s >= obsStates || (j > 0 && s <= o.States[j-1]) {
						t.Fatalf("accepted state %d at %d of %v", s, j, o.States)
					}
					if p := o.Probs[j]; !(p >= 0) || math.IsInf(p, 0) {
						t.Fatalf("accepted probability %v", p)
					}
				}
			}
		}
	})
}
