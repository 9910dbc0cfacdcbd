package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/query"
)

// stateStore opens the store a servent-mode up2pd opens under -state
// dir.
func stateStore(t *testing.T, dir string) *index.Store {
	t.Helper()
	st, err := openStore(Config{StateDir: dir, Fsync: "os"}, metrics.NewRegistry(), slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func stateDoc(i int) *index.Document {
	return &index.Document{
		ID:          index.DocID(fmt.Sprintf("d%02d", i)),
		CommunityID: fmt.Sprintf("c%d", i%3),
		Title:       fmt.Sprintf("T%d", i),
		XML:         fmt.Sprintf("<o>%d</o>", i),
		Attrs:       query.Attrs{"k": {fmt.Sprintf("v%d", i)}},
	}
}

// TestStateMigratesStoreJSON: a store.json left by a daemon that saved
// its store only on clean shutdown is adopted as the log's snapshot on
// the first open under -state, once.
func TestStateMigratesStoreJSON(t *testing.T) {
	dir := t.TempDir()
	var docs []*index.Document
	for i := 0; i < 7; i++ {
		docs = append(docs, stateDoc(i))
	}
	old, err := json.MarshalIndent(map[string]any{"version": 1, "documents": docs}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "store.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	st := stateStore(t, dir)
	if st.Len() != len(docs) {
		t.Fatalf("migrated store holds %d objects, want %d", st.Len(), len(docs))
	}
	for _, d := range docs {
		got, err := st.Get(d.ID)
		if err != nil || got.Title != d.Title || got.XML != d.XML || got.CommunityID != d.CommunityID {
			t.Errorf("%s after migration: %+v, %v", d.ID, got, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "store.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("store.json still there after migration: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The log now owns the state: a store.json that turns up later is
	// left alone.
	stray := []byte(`{"version":1,"documents":[{"ID":"stray","CommunityID":"c"}]}`)
	if err := os.WriteFile(filepath.Join(dir, "store.json"), stray, 0o644); err != nil {
		t.Fatal(err)
	}
	st = stateStore(t, dir)
	if st.Len() != len(docs) || st.Has("stray") {
		t.Errorf("reopened store holds %d objects (stray: %v), want %d", st.Len(), st.Has("stray"), len(docs))
	}
}

// TestSaveStateKeepsPreviousOnFailure: a save that dies halfway
// leaves the previous servent.json byte for byte, and no temp file.
func TestSaveStateKeepsPreviousOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "servent.json")
	prev := `{"version":1,"communities":[]}`
	if err := index.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, prev)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("disk full")
	err := index.WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, `{"version":1,"commun`)
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failed save returned %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != prev {
		t.Fatalf("servent.json after a failed save = %q, %v; want %q", got, err, prev)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("state dir holds %d files after a failed save, want 1", len(entries))
	}
}
