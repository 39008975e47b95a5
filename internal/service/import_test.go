package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/store"
)

// otherChain is a 3-state chain the paper dataset does not hold.
func otherChain(t *testing.T) *markov.Chain {
	t.Helper()
	c, err := markov.FromDense([][]float64{
		{0.5, 0.5, 0},
		{0, 0.5, 0.5},
		{0.5, 0, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestImportFrameRejections pins what a worker refuses and what a
// refusal costs: a frame naming a fingerprint the dataset does not
// hold, a reference with the wrong |S|, a truncated frame and a
// bit-flipped one each fail with ErrBadIngest, and none of them moves
// the dataset, its version or the generation fence.
func TestImportFrameRejections(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	db := paperDB(t)
	if err := svc.Create("d", db, nil); err != nil {
		t.Fatal(err)
	}
	def := db.DefaultChain()
	obj := core.MustObject(500, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(3, 1)})
	good, err := store.NewFrameEncoder(def).Encode([]*core.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := store.NewFrameEncoder(otherChain(t)).Encode([]*core.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	// The CHR0 payload follows the 12-byte header and the 4-byte tag:
	// fingerprint, then |S|.
	wrongStates := bytes.Clone(good)
	binary.LittleEndian.PutUint64(wrongStates[24:], 4)
	binary.LittleEndian.PutUint32(wrongStates[len(wrongStates)-4:], crc32.ChecksumIEEE(wrongStates[:len(wrongStates)-8]))
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10

	before, _ := svc.Info("d")
	for _, tc := range []struct {
		name   string
		frame  []byte
		anchor error
	}{
		{"unknown fingerprint", foreign, store.ErrUnknownChain},
		{"|S| mismatch", wrongStates, store.ErrCorrupt},
		{"truncated", good[:len(good)-5], store.ErrCorrupt},
		{"bit-flipped", flipped, store.ErrCorrupt},
	} {
		err := svc.ImportObjects("d", 7, tc.frame)
		if !errors.Is(err, ErrBadIngest) || !errors.Is(err, tc.anchor) {
			t.Fatalf("%s: %v, want ErrBadIngest anchored on %v", tc.name, err, tc.anchor)
		}
		if after, _ := svc.Info("d"); after != before {
			t.Fatalf("%s: dataset moved from %+v to %+v", tc.name, before, after)
		}
	}
	ds, err := svc.dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	if ds.lastGen != 0 {
		t.Fatalf("rejected frames moved the fence to %d", ds.lastGen)
	}
	// The fence did not move, so the lowest generation still lands.
	if err := svc.ImportObjects("d", 1, good); err != nil {
		t.Fatalf("good frame after the rejections: %v", err)
	}
	if after, _ := svc.Info("d"); after.Objects != before.Objects+1 {
		t.Fatalf("good frame: %d objects, want %d", after.Objects, before.Objects+1)
	}
}

// TestRefusedEvictionChangesNothing pins eviction as all or nothing: a
// batch naming one unknown id (or one id twice) fails with ErrBadIngest
// and leaves the object count and the generation fence as they were,
// so the held object is still evictable at the next generation.
func TestRefusedEvictionChangesNothing(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 24), nil); err != nil {
		t.Fatal(err)
	}
	const held = 5
	for _, ids := range [][]int{{held, 987654321}, {held, held}} {
		if err := svc.EvictObjects("d", 1, ids); !errors.Is(err, ErrBadIngest) {
			t.Fatalf("evict %v: %v, want ErrBadIngest", ids, err)
		}
		if info, _ := svc.Info("d"); info.Objects != 24 {
			t.Fatalf("refused evict %v left %d objects, want 24", ids, info.Objects)
		}
		if ds, _ := svc.dataset("d"); ds.lastGen != 0 {
			t.Fatalf("refused evict %v moved the fence to %d", ids, ds.lastGen)
		}
	}
	if err := svc.EvictObjects("d", 1, []int{held}); err != nil {
		t.Fatalf("evicting the held object after the refusals: %v", err)
	}
	if info, _ := svc.Info("d"); info.Objects != 23 {
		t.Fatalf("after the evict: %d objects, want 23", info.Objects)
	}
}

// TestImportMetrics pins the worker-side write-path counters: bytes and
// objects of applied frames and one histogram sample per frame, with
// rejected frames counting nowhere.
func TestImportMetrics(t *testing.T) {
	svc, base := distTestServer(t, Config{Role: "worker"})
	info, _ := svc.Info("d")
	ds, _ := svc.dataset("d")
	enc := store.NewFrameEncoder(ds.db.DefaultChain())
	total := 0
	for gen := uint64(1); gen <= 2; gen++ {
		frame, err := enc.Encode([]*core.Object{
			core.MustObject(500, nil, core.Observation{Time: int(gen), PDF: markov.PointDistribution(info.States, 1)}),
			core.MustObject(501, nil, core.Observation{Time: int(gen), PDF: markov.PointDistribution(info.States, 2)}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.ImportObjects("d", gen, frame); err != nil {
			t.Fatal(err)
		}
		total += len(frame)
	}
	if err := svc.ImportObjects("d", 3, []byte("not a frame")); err == nil {
		t.Fatal("garbage frame was accepted")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ust_import_bytes_total " + strconv.Itoa(total),
		"ust_import_objects_total 4",
		"ust_import_duration_seconds_count 2",
		`ust_import_duration_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestUploadLimit pins the body bound of the binary endpoints: a body
// past the limit is a 413 with ErrBodyTooLarge — declared
// (Content-Length) or not (chunked) — never a truncated read reported
// as a corrupt image, and a body within the limit is read whole.
func TestUploadLimit(t *testing.T) {
	read := func(body io.Reader, declared int64, limit int64) ([]byte, int, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/datasets/d/import?gen=1", body)
		r.ContentLength = declared
		w := httptest.NewRecorder()
		data, err := readUpload(w, r, limit)
		if err != nil {
			writeError(w, err)
		}
		return data, w.Code, err
	}
	payload := bytes.Repeat([]byte("x"), 100)
	if data, _, err := read(bytes.NewReader(payload), 100, 100); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("declared body at the limit: %d bytes, err %v", len(data), err)
	}
	if data, _, err := read(bytes.NewReader(payload), -1, 100); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("chunked body at the limit: %d bytes, err %v", len(data), err)
	}
	for name, declared := range map[string]int64{"declared": 100, "chunked": -1} {
		_, code, err := read(bytes.NewReader(payload), declared, 99)
		if !errors.Is(err, ErrBodyTooLarge) || code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s body past the limit: err %v, status %d, want ErrBodyTooLarge and 413", name, err, code)
		}
	}
	// A declared length the body does not deliver is a bad request, not
	// a short image.
	if _, code, err := read(bytes.NewReader(payload[:40]), 100, 100); err == nil || code != http.StatusBadRequest {
		t.Fatalf("short body: err %v, status %d, want 400", err, code)
	}
}

// TestShardImportFailuresMetric pins the coordinator-side write-path
// series: a dataset served by a shard router exposes one
// ust_shard_import_failures_total and one ust_shard_stale_replicas
// series per shard.
func TestShardImportFailuresMetric(t *testing.T) {
	_, base := distTestServer(t, Config{Role: "coordinator", Shards: 2})
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`ust_shard_import_failures_total{dataset="d",shard="0"} 0`,
		`ust_shard_import_failures_total{dataset="d",shard="1"} 0`,
		`ust_shard_stale_replicas{dataset="d",shard="0"} 0`,
		`ust_shard_stale_replicas{dataset="d",shard="1"} 0`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestImportRepeatedColumnKeepsServing sends a worker a CRC-valid frame
// whose inline own chain repeats a column in one row. The import fails
// with ErrBadIngest anchored on store.ErrCorrupt, and the dataset keeps
// serving: Info and a valid import still return. The call runs under a
// recover, as an HTTP handler's would, so a decoder panic shows as the
// lock it leaves behind.
func TestImportRepeatedColumnKeepsServing(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	db := paperDB(t)
	if err := svc.Create("d", db, nil); err != nil {
		t.Fatal(err)
	}
	own := otherChain(t)
	obj := core.MustObject(500, own, core.Observation{Time: 0, PDF: markov.PointDistribution(3, 1)})
	good, err := store.NewFrameEncoder(db.DefaultChain()).Encode([]*core.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	var chain bytes.Buffer
	if err := store.SaveChain(&chain, own); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(good, chain.Bytes()[16:chain.Len()-8]) // the own chain's CSR, inline
	if at < 0 {
		t.Fatal("own chain not inline in the frame")
	}
	// The CSR's columns follow rows, cols, the row count, three row
	// lengths and the column count; the first row holds two columns.
	cols := at + 8*(3+3+1)
	bad := bytes.Clone(good)
	copy(bad[cols+8:cols+16], bad[cols:cols+8])
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-8]))

	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		err = svc.ImportObjects("d", 1, bad)
	}()
	if !errors.Is(err, ErrBadIngest) || !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("repeated column: %v, want ErrBadIngest anchored on store.ErrCorrupt", err)
	}
	done := make(chan error, 1)
	go func() {
		if _, err := svc.Info("d"); err != nil {
			done <- err
			return
		}
		done <- svc.ImportObjects("d", 1, good)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("after the refused frame: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the dataset is still locked after the refused frame")
	}
}
