package index

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/query"
)

// withWALSegmentBytes sets the segment size beyond which appends
// rotate to a fresh file, so tests can force rotation with a few
// documents.
func withWALSegmentBytes(n int64) Option {
	return func(c *storeConfig) { c.walSegmentBytes = n }
}

// openWAL opens a WAL-backed store in dir with small segments so the
// tests exercise rotation.
func openWAL(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	opts = append([]Option{
		WithWAL(dir),
		withWALSegmentBytes(4 << 10),
		WithWALCompactBytes(0), // compaction only when a test asks
	}, opts...)
	s, err := OpenStore(opts...)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// walBatch builds batch b: docsPer documents spread over five
// communities.
func walBatch(b, docsPer int) []*Document {
	docs := make([]*Document, 0, docsPer)
	for j := 0; j < docsPer; j++ {
		docs = append(docs, &Document{
			ID:          DocID(fmt.Sprintf("b%04d-d%d", b, j)),
			CommunityID: fmt.Sprintf("comm-%d", j%5),
			Title:       fmt.Sprintf("batch %d doc %d", b, j),
			XML:         "<o/>",
			Attrs:       query.Attrs{"batch": {fmt.Sprintf("%d", b)}},
		})
	}
	return docs
}

// walFileSizes snapshots the size of every segment file in dir.
func walFileSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64)
	for _, e := range entries {
		if _, _, ok := parseSegmentName(e.Name()); ok {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			sizes[e.Name()] = fi.Size()
		}
	}
	return sizes
}

func TestWALRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s := openWAL(t, dir)
	const batches, docsPer = 20, 6
	for b := 0; b < batches; b++ {
		if err := s.PutBatch(walBatch(b, docsPer)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	// Crash: no Close, no Compact — the log is the only durable state.
	s.wal.closeFiles()

	r := openWAL(t, dir)
	if got, want := r.Len(), batches*docsPer; got != want {
		t.Fatalf("recovered %d docs, want %d", got, want)
	}
	d, err := r.Get("b0007-d3")
	if err != nil || d.Title != "batch 7 doc 3" || d.CommunityID != "comm-3" {
		t.Fatalf("recovered doc = %+v, %v", d, err)
	}
	// The inverted index is rebuilt: indexed search works.
	if got := len(r.Search("comm-0", query.MustParse("(batch=7)"), 0)); got != 2 {
		t.Fatalf("indexed search after recovery = %d docs, want 2", got)
	}
	if n := r.reg.Snapshot().Counter("index.wal_replayed"); n == 0 {
		t.Error("index.wal_replayed not counted")
	}
}

// TestWALKillAtRandomOffset is the crash-recovery acceptance test:
// write N acknowledged batches, then cut the log at a random byte —
// truncation or bit-flip, anywhere in any segment — and require that
// (a) reopening never fails and (b) every batch acknowledged before
// the cut point was written is intact.
func TestWALKillAtRandomOffset(t *testing.T) {
	const trials = 12
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			dir := t.TempDir()
			s := openWAL(t, dir)
			const batches, docsPer = 25, 6
			// ackSizes[b] = size of every segment when batch b was acked.
			ackSizes := make([]map[string]int64, batches)
			type op struct {
				putB int     // batch whose docs this op put (-1 for delete ops)
				dels []DocID // docs this op deleted
			}
			ops := make([]op, batches)
			deleted := make(map[DocID]int) // doc -> batch that deleted it
			for b := 0; b < batches; b++ {
				if b > 4 && b%5 == 0 {
					// A delete batch: drop two docs of batch b-3.
					ids := []DocID{
						DocID(fmt.Sprintf("b%04d-d0", b-3)),
						DocID(fmt.Sprintf("b%04d-d1", b-3)),
					}
					s.DeleteBatch(ids)
					ops[b] = op{putB: -1, dels: ids}
					for _, id := range ids {
						deleted[id] = b
					}
				} else {
					if err := s.PutBatch(walBatch(b, docsPer)); err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					ops[b] = op{putB: b}
				}
				ackSizes[b] = walFileSizes(t, dir)
			}
			s.wal.closeFiles()

			// Choose the cut: a random byte in a random segment.
			sizes := walFileSizes(t, dir)
			var files []string
			for name, sz := range sizes {
				if sz > 0 {
					files = append(files, name)
				}
			}
			if len(files) == 0 {
				t.Fatal("no segments written")
			}
			victim := files[rng.Intn(len(files))]
			cut := rng.Int63n(sizes[victim] + 1)
			path := filepath.Join(dir, victim)
			if rng.Intn(2) == 0 || cut == sizes[victim] {
				if err := os.Truncate(path, cut); err != nil {
					t.Fatal(err)
				}
			} else {
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				var one [1]byte
				if _, err := f.ReadAt(one[:], cut); err != nil {
					t.Fatal(err)
				}
				one[0] ^= 0xff
				if _, err := f.WriteAt(one[:], cut); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			// Reopen: a torn/corrupt tail must never abort startup.
			r := openWAL(t, dir)

			// A batch survives iff every byte it ever appended — in the
			// victim file too — lies before the cut. Other files are
			// untouched, so only the victim's ack-time size matters.
			for b := 0; b < batches; b++ {
				if ackSizes[b][victim] > cut {
					continue // acked after the cut; no guarantee
				}
				o := ops[b]
				if o.putB >= 0 {
					for j := 0; j < docsPer; j++ {
						id := DocID(fmt.Sprintf("b%04d-d%d", o.putB, j))
						if _, wasDeleted := deleted[id]; wasDeleted {
							continue // judged with the delete batch below
						}
						d, err := r.Get(id)
						if err != nil {
							t.Errorf("acked batch %d lost doc %s (cut %s@%d): %v", b, id, victim, cut, err)
						} else if d.Title != fmt.Sprintf("batch %d doc %d", o.putB, j) {
							t.Errorf("doc %s corrupted: %q", id, d.Title)
						}
					}
				} else {
					// Nothing re-puts a deleted ID, so a surviving delete
					// must hold after recovery.
					for _, id := range o.dels {
						if r.Has(id) {
							t.Errorf("acked delete batch %d resurrected %s", b, id)
						}
					}
				}
			}
		})
	}
}

func TestWALTornTailTruncatedAndAppendable(t *testing.T) {
	dir := t.TempDir()
	s := openWAL(t, dir)
	if err := s.PutBatch(walBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	s.wal.closeFiles()
	// Smear a torn record onto the tail of every segment.
	for name := range walFileSizes(t, dir) {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	r := openWAL(t, dir)
	if got := r.Len(); got != 4 {
		t.Fatalf("recovered %d docs, want 4", got)
	}
	if n := r.reg.Snapshot().Label("errors", "wal.corrupt"); n == 0 {
		t.Error("torn tail not counted under wal.corrupt")
	}
	// The truncated segments accept appends again and a further
	// recovery sees both generations.
	if err := r.PutBatch(walBatch(1, 4)); err != nil {
		t.Fatal(err)
	}
	r.wal.closeFiles()
	r2 := openWAL(t, dir)
	if got := r2.Len(); got != 8 {
		t.Fatalf("after torn tail + append, recovered %d docs, want 8", got)
	}
}

func TestWALReplaysDeletesInOrder(t *testing.T) {
	dir := t.TempDir()
	s := openWAL(t, dir)
	if err := s.PutBatch(walBatch(0, 6)); err != nil {
		t.Fatal(err)
	}
	if !s.Delete("b0000-d2") {
		t.Fatal("delete failed")
	}
	// Re-put then delete again: replay order matters.
	if err := s.Put(walBatch(0, 6)[3]); err != nil {
		t.Fatal(err)
	}
	s.DeleteBatch([]DocID{"b0000-d3", "b0000-d4"})
	s.wal.closeFiles()

	r := openWAL(t, dir)
	if got := r.Len(); got != 3 {
		t.Fatalf("recovered %d docs, want 3", got)
	}
	for _, id := range []DocID{"b0000-d2", "b0000-d3", "b0000-d4"} {
		if r.Has(id) {
			t.Errorf("deleted doc %s resurrected by replay", id)
		}
	}
}

func TestWALCompactionFoldsLogIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openWAL(t, dir)
	for b := 0; b < 10; b++ {
		if err := s.PutBatch(walBatch(b, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walSnapshotName)); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	for name, sz := range walFileSizes(t, dir) {
		if sz != 0 {
			t.Errorf("segment %s not reset (size %d)", name, sz)
		}
	}
	// Writes after compaction land on the fresh log; recovery layers
	// them over the snapshot.
	if err := s.PutBatch(walBatch(10, 6)); err != nil {
		t.Fatal(err)
	}
	s.wal.closeFiles()
	r := openWAL(t, dir)
	if got := r.Len(); got != 11*6 {
		t.Fatalf("recovered %d docs, want %d", got, 11*6)
	}
}

func TestWALAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(WithWAL(dir), withWALSegmentBytes(2<<10), WithWALCompactBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 60; b++ {
		if err := s.PutBatch(walBatch(b, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, walSnapshotName)); err != nil {
		t.Fatalf("auto-compaction never ran: %v", err)
	}
	if total := s.wal.total.Load(); total > 16<<10 {
		t.Errorf("live log still %d bytes after auto-compaction", total)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openWAL(t, dir)
	if got := r.Len(); got != 60*4 {
		t.Fatalf("recovered %d docs, want %d", got, 60*4)
	}
}

func TestWALCloseCompactsCleanly(t *testing.T) {
	dir := t.TempDir()
	s := openWAL(t, dir)
	if err := s.PutBatch(walBatch(0, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for name, sz := range walFileSizes(t, dir) {
		if sz != 0 {
			t.Errorf("segment %s not reset by clean shutdown (size %d)", name, sz)
		}
	}
	r := openWAL(t, dir)
	if got := r.Len(); got != 6 {
		t.Fatalf("recovered %d docs, want 6", got)
	}
}

func TestWALMetricsAndFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncOS} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(WithWAL(dir), WithWALFsync(policy))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutBatch(walBatch(0, 6)); err != nil {
				t.Fatal(err)
			}
			snap := s.reg.Snapshot()
			if snap.Counter("index.wal_appends") == 0 {
				t.Error("index.wal_appends not counted")
			}
			if snap.Counter("index.wal_bytes") == 0 {
				t.Error("index.wal_bytes not counted")
			}
			s.wal.closeFiles()
			r, err := OpenStore(WithWAL(dir), WithWALFsync(policy))
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Len(); got != 6 {
				t.Fatalf("recovered %d docs, want 6", got)
			}
		})
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad fsync policy accepted")
	}
}

// TestWALConcurrentWriters exercises logged writes from many
// goroutines (run under -race by make crash-smoke), with automatic
// compactions landing between batches, and proves the result recovers
// document for document.
func TestWALConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s := openWAL(t, dir, WithWALFsync(FsyncOS), WithWALCompactBytes(2<<10))
	const workers, batchesPer = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				docs := walBatch(w*100+b, 4)
				if err := s.PutBatch(docs); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if b%3 == 2 {
					s.Delete(docs[0].ID)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := os.Stat(filepath.Join(dir, walSnapshotName)); err != nil {
		t.Fatalf("no compaction ran: %v", err)
	}
	want := dump(t, s)
	s.wal.closeFiles()
	r := openWAL(t, dir)
	if got := dump(t, r); !bytes.Equal(got, want) {
		t.Fatalf("recovered\n%s\nwant\n%s", got, want)
	}
}

// TestWALAppendFailureAppliesNothing: a batch is one log record, so a
// failed append leaves the store as it was — no community of a
// multi-community PutBatch is applied, and no ID of a DeleteBatch is
// deleted.
func TestWALAppendFailureAppliesNothing(t *testing.T) {
	s := openWAL(t, t.TempDir())
	if err := s.PutBatch(walBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	want, postings := dump(t, s), s.Postings()
	// Close the segment under the log: the next write to it fails.
	if err := s.wal.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(walBatch(1, 10)); err == nil {
		t.Fatal("PutBatch succeeded with its log append failing")
	}
	if n := s.DeleteBatch([]DocID{"b0000-d0", "b0000-d1"}); n != 0 {
		t.Errorf("DeleteBatch deleted %d with its log append failing", n)
	}
	if got := dump(t, s); !bytes.Equal(got, want) {
		t.Errorf("failed writes changed the store:\n%s\nwant\n%s", got, want)
	}
	if s.Postings() != postings {
		t.Errorf("postings %d, want %d", s.Postings(), postings)
	}
	for c := 0; c < 5; c++ {
		if n := s.CommunityLen(fmt.Sprintf("comm-%d", c)); n != 1 {
			t.Errorf("comm-%d holds %d documents, want 1", c, n)
		}
	}
	if n := s.reg.Snapshot().Label("errors", "wal.append"); n != 2 {
		t.Errorf("wal.append counted %d times, want 2", n)
	}
}

func TestNewStorePanicsOnWAL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStore(WithWAL) did not panic")
		}
	}()
	NewStore(WithWAL(t.TempDir()))
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestLoadErrors: a damaged snapshot.json aborts OpenStore, is counted
// once under wal.replay, and leaves every file as it was — the segment
// beside it, whose garbage tail recovery would otherwise cut, included.
func TestLoadErrors(t *testing.T) {
	for _, tc := range []struct{ name, snapshot string }{
		{"truncated json", "{"},
		{"future version", `{"version":2,"documents":[]}`},
		{"document without ID", `{"version":1,"documents":[
			{"ID":"good","CommunityID":"c","Title":"G","Attrs":{"k":["v"]}},
			{"ID":"","CommunityID":"c","Title":"bad"}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walSnapshotName), []byte(tc.snapshot), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(0, 1)), []byte("not a record"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			reg := metrics.NewRegistry()
			if _, err := OpenStore(WithWAL(dir), WithMetrics(reg)); err == nil {
				t.Fatal("damaged snapshot accepted")
			}
			if n := reg.Snapshot().Label("errors", "wal.replay"); n != 1 {
				t.Errorf("wal.replay counted %d times, want 1", n)
			}
			if after := dirFiles(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Errorf("failed open changed the directory:\nbefore %q\nafter  %q", before, after)
			}
		})
	}
}

// TestWALHugeLengthIsTornTail: a header claiming more bytes than its
// segment holds is a torn tail, cut without allocating what it claims.
func TestWALHugeLengthIsTornTail(t *testing.T) {
	dir := t.TempDir()
	seg := make([]byte, 20)
	binary.LittleEndian.PutUint32(seg, 200<<20)
	path := filepath.Join(dir, segmentName(0, 1))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := OpenStore(WithWAL(dir))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("recovering a 20-byte segment allocated %d bytes", got)
	}
	if s.Len() != 0 {
		t.Errorf("recovered %d docs from garbage", s.Len())
	}
	if n := s.reg.Snapshot().Label("errors", "wal.corrupt"); n != 1 {
		t.Errorf("wal.corrupt counted %d times, want 1", n)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Errorf("torn segment not cut to 0: %v, %v", fi, err)
	}
}

// TestWALFixtureV1: testdata/wal-v1 — a snapshot and two segments (two
// shards: puts, a replace, deletes) left as a crash leaves them — was
// written by the store before snapshots stopped being a public API.
// It must still recover to the documents listed in wal-v1.want.json,
// which that same code recovered from it: the on-disk format has not
// moved.
func TestWALFixtureV1(t *testing.T) {
	dir := t.TempDir()
	for name, data := range dirFiles(t, filepath.Join("testdata", "wal-v1")) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wal-v1.want.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := openWAL(t, dir)
	if n := s.reg.Snapshot().Counter("index.wal_replayed"); n == 0 {
		t.Error("fixture segments not replayed")
	}
	if got := dump(t, s); !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Errorf("fixture recovered to\n%s\nwant\n%s", got, want)
	}
}

// TestSnapshotBytesUnchanged pins writeSnapshot's output to what one
// json.Encoder call on the whole snapshot wrote while the store held
// documents (oracleSnapshot of the copies it kept), for no, one and
// many documents, including characters the encoder escapes.
func TestSnapshotBytesUnchanged(t *testing.T) {
	many := walBatch(0, 7)
	many[2].XML = `<o a="1">x & <y/></o>`
	many[3].Attachments = []string{"file:a", "file:b"}
	many[4].Attrs = query.Attrs{"a": {"1", "2"}, "b": nil, "c": {}}
	for _, docs := range [][]*Document{{}, walBatch(1, 1), many} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(oracleSnapshot{Version: snapshotVersion, Documents: oracleClones(docs)}); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := writeSnapshot(&got, NewEntries(docs)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d documents: wrote\n%s\nwant\n%s", len(docs), got.Bytes(), want.Bytes())
		}
	}
}
