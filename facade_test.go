package ust_test

// Facade coverage for the surfaces PR 3 exported: the persistence
// codec (SaveDatabase/LoadDatabase), standing queries, the Service
// layer and the wire request codec.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ust"
)

func facadeDB(t testing.TB) *ust.Database {
	t.Helper()
	chain, err := ust.ChainFromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := ust.NewDatabase(chain)
	for id := 1; id <= 5; id++ {
		if err := db.AddSimple(id, ust.PointDistribution(3, id%3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// storeFixture reads one of the store's golden images.
func storeFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("internal", "store", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFacadePersistRoundTrip drives the facade's codec: a database and
// a chain round-trip through the binary format, and the legacy forms —
// the golden version-1 image and JSON document — load to the database
// whose version-2 image is the golden v2.ustd.
func TestFacadePersistRoundTrip(t *testing.T) {
	db := facadeDB(t)
	var bin bytes.Buffer
	if err := ust.SaveDatabase(&bin, db); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ust.LoadDatabase(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	q := ust.NewQuery([]int{0, 1}, []int{2, 3})
	want := ask(t, ust.NewEngine(db, ust.Options{}), ust.PredicateExists, q)
	if got := ask(t, ust.NewEngine(fromBin, ust.Options{}), ust.PredicateExists, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("binary round-trip changed results: %+v vs %+v", got, want)
	}

	fromV1, err := ust.LoadDatabase(bytes.NewReader(storeFixture(t, "v1.ustd")))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ust.ImportDatabaseJSON(bytes.NewReader(storeFixture(t, "db.json")))
	if err != nil {
		t.Fatal(err)
	}
	for name, loaded := range map[string]*ust.Database{"v1": fromV1, "json": fromJSON} {
		var again bytes.Buffer
		if err := ust.SaveDatabase(&again, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), storeFixture(t, "v2.ustd")) {
			t.Fatalf("the %s fixture does not load to the database of v2.ustd", name)
		}
	}

	var chainBuf bytes.Buffer
	if err := ust.SaveChain(&chainBuf, db.DefaultChain()); err != nil {
		t.Fatal(err)
	}
	if _, err := ust.LoadChain(bytes.NewReader(chainBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeMonitor drives one monitoring round through the facade's
// standing query, Service.Subscribe: snapshot, a new sighting, and an
// incremental refresh that must equal a fresh evaluation.
func TestFacadeMonitor(t *testing.T) {
	svc := ust.NewService(ust.ServiceConfig{})
	defer svc.Close()
	if err := svc.Create("d", facadeDB(t), nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := ust.NewRequest(ust.PredicateExists, ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3}))
	fresh := func() map[int]ust.Result {
		t.Helper()
		resp, err := svc.Evaluate(ctx, "d", req)
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]ust.Result{}
		for _, r := range resp.Results {
			out[r.ObjectID] = r
		}
		return out
	}
	sub, err := svc.Subscribe(ctx, "d", req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	state := map[int]ust.Result{}
	first := <-sub.Updates()
	for _, r := range first.Results {
		state[r.ObjectID] = r
	}
	if want := fresh(); !first.Full || !reflect.DeepEqual(state, want) {
		t.Fatalf("snapshot %+v != fresh %+v", first, want)
	}

	if err := svc.Observe("d", 1, ust.Observation{Time: 1, PDF: ust.PointDistribution(3, 2)}); err != nil {
		t.Fatal(err)
	}
	up := <-sub.Updates()
	if up.Full || len(up.Results) != 1 || up.Results[0].ObjectID != 1 {
		t.Fatalf("refresh should carry object 1 alone: %+v", up)
	}
	state[1] = up.Results[0]
	if want := fresh(); !reflect.DeepEqual(state, want) {
		t.Fatalf("incremental state %+v != fresh %+v", state, want)
	}
}

func TestFacadeServiceAndWire(t *testing.T) {
	svc := ust.NewService(ust.ServiceConfig{})
	defer svc.Close()
	if err := svc.Create("d", facadeDB(t), nil); err != nil {
		t.Fatal(err)
	}
	req := ust.NewRequest(ust.PredicateExists,
		ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3}), ust.WithTopK(3))

	// The text form — what travels on the wire — round-trips the
	// request exactly.
	text, err := ust.FormatQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ust.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Fatalf("text round-trip changed request: %#v vs %#v", back, req)
	}

	resp, err := svc.Evaluate(context.Background(), "d", back)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ust.NewEngine(facadeDB(t), ust.Options{}).Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Results, direct.Results) {
		t.Fatalf("service %+v != direct %+v", resp.Results, direct.Results)
	}

	// Subscriptions work through the facade types.
	sub, err := svc.Subscribe(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	up := <-sub.Updates()
	if !up.Full || !reflect.DeepEqual(up.Results, direct.Results) {
		t.Fatalf("subscription snapshot %+v != direct %+v", up.Results, direct.Results)
	}
}
