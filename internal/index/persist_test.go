package index

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/query"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := seeded(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	restored := NewStore()
	if err := restored.Load(&buf); err != nil {
		t.Fatalf("load: %v", err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", restored.Len(), s.Len())
	}
	if restored.Postings() != s.Postings() {
		t.Errorf("postings = %d, want %d (index rebuilt)", restored.Postings(), s.Postings())
	}
	// Same search behaviour.
	for _, f := range []string{"(title=Observer)", "(keywords=behavioral)", "(year>=1990)"} {
		a := ids(s.Search("patterns", query.MustParse(f), 0))
		b := ids(restored.Search("patterns", query.MustParse(f), 0))
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s: %v vs %v", f, a, b)
		}
	}
	// Documents round-trip fully.
	d, err := restored.Get("d4")
	if err != nil || d.Title != "Kind of Blue" || d.XML == "" {
		t.Errorf("d4 = %+v, %v", d, err)
	}
}

func TestSaveDeterministic(t *testing.T) {
	s := seeded(t)
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("snapshots differ between saves")
	}
}

func TestLoadReplacesContents(t *testing.T) {
	donor := seeded(t)
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatal(err)
	}
	target := NewStore()
	if err := target.Put(doc("old", "stale", "Old", map[string][]string{"k": {"v"}})); err != nil {
		t.Fatal(err)
	}
	if err := target.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if target.Has("old") {
		t.Error("pre-load contents survived")
	}
	if got := target.Search("stale", query.MustParse("(k=v)"), 0); len(got) != 0 {
		t.Error("stale index entries survived load")
	}
}

func TestLoadErrors(t *testing.T) {
	s := NewStore()
	if err := s.Load(strings.NewReader("{")); err == nil {
		t.Error("truncated json accepted")
	}
	if err := s.Load(strings.NewReader(`{"version":2,"documents":[]}`)); err == nil {
		t.Error("future version accepted")
	}
	if err := s.Load(strings.NewReader(`{"version":1,"documents":[{"ID":""}]}`)); err == nil {
		t.Error("document without ID accepted")
	}
}

// TestLoadPoisonedSnapshotLeavesStoreIntact is the regression test
// for the destructive-Load bug: Load used to clear every shard (and
// the directory) before re-ingesting, so a snapshot that failed
// validation mid-way left the store empty. Load now stages and swaps
// only on success.
func TestLoadPoisonedSnapshotLeavesStoreIntact(t *testing.T) {
	s := seeded(t)
	wantLen, wantPostings := s.Len(), s.Postings()
	// A poisoned snapshot: valid version, one good document, then one
	// with no ID.
	poisoned := `{"version":1,"documents":[
		{"ID":"good","CommunityID":"c","Title":"G","Attrs":{"k":["v"]}},
		{"ID":"","CommunityID":"c","Title":"bad"}]}`
	if err := s.Load(strings.NewReader(poisoned)); err == nil {
		t.Fatal("poisoned snapshot accepted")
	}
	if s.Len() != wantLen || s.Postings() != wantPostings {
		t.Fatalf("store damaged by failed load: len=%d (want %d) postings=%d (want %d)",
			s.Len(), wantLen, s.Postings(), wantPostings)
	}
	if s.Has("good") {
		t.Error("half of the failed snapshot was installed")
	}
	// The store still serves queries.
	if got := len(s.Search("patterns", query.MustParse("(title=Observer)"), 0)); got != 1 {
		t.Errorf("post-failure search = %d docs, want 1", got)
	}
}

// TestSaveConsistentCut is the regression test for torn snapshots:
// shard-by-shard locking let a concurrent cross-shard PutBatch appear
// half-written. Save now read-locks every shard before copying, so
// each batch is in a snapshot either wholly or not at all.
func TestSaveConsistentCut(t *testing.T) {
	s := NewStore(WithShards(8))
	const comms = 8 // spread every batch across shards
	stop := make(chan struct{})
	done := make(chan struct{})
	// The writer stays at most 64 batches ahead of the snapshots taken:
	// unpaced, one slow Save lets the store grow, which slows the next
	// Save, and the test runs away.
	var saves atomic.Int64
	go func() {
		defer close(done)
		for k := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			if int64(k) >= 64*(saves.Load()+1) {
				runtime.Gosched()
				continue
			}
			batch := make([]*Document, comms)
			for c := range batch {
				batch[c] = doc(
					fmt.Sprintf("k%06d-c%d", k, c),
					fmt.Sprintf("comm-%d", c),
					fmt.Sprintf("batch %d", k),
					map[string][]string{"k": {"v"}},
				)
			}
			if err := s.PutBatch(batch); err != nil {
				t.Errorf("put batch %d: %v", k, err)
				return
			}
			k++
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var snap snapshot
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		perBatch := make(map[string]int)
		for _, d := range snap.Documents {
			perBatch[string(d.ID[:7])]++
		}
		for k, n := range perBatch {
			if n != comms {
				t.Fatalf("snapshot %d tore batch %s: %d of %d docs", i, k, n, comms)
			}
		}
		saves.Add(1)
	}
	close(stop)
	<-done
}
