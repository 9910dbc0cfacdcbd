package index

// Write-ahead logging for the store. Every mutation
// (Put/PutBatch/Delete/DeleteBatch) appends one framed, checksummed
// record to an append-only log *before* touching the in-memory maps,
// so a store that acknowledged a write can reproduce it after a crash:
// on open, the latest snapshot is loaded and the log replayed on top
// (see recovery.go). A torn tail — the partially written record a
// crash leaves behind — is truncated at the first bad checksum and
// never aborts startup.
//
// The log is one chain of segment files, wal-000-<seq>.log, appended
// under the store's lock. Every record carries a log sequence number
// (LSN), and recovery merges every segment in the directory by LSN, so
// the logs of the earlier lock-striped store — one chain per stripe,
// wal-<stripe>-<seq>.log — replay unchanged.
//
// Compaction folds the log into the existing snapshot format
// (snapshot.json, written atomically via temp file + rename) and
// resets every segment. It runs on Close (clean shutdown) and
// automatically once the live log exceeds WithWALCompactBytes.
//
// Errors carry the wal.* structured codes (wal.append, wal.replay,
// wal.corrupt, wal.compact) and are counted into the store's metrics
// registry alongside the index.wal_appends / index.wal_bytes /
// index.wal_replayed counters.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/errs"
	"repro/internal/metrics"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy string

const (
	// FsyncAlways fsyncs after every append: an acknowledged batch
	// survives both process crash and power loss. The default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncOS leaves flushing to the OS page cache: an acknowledged
	// batch survives process crash but not power loss. Roughly an
	// order of magnitude faster on fsync-bound ingest (see E18).
	FsyncOS FsyncPolicy = "os"
)

// ParseFsyncPolicy validates a policy string (for flag/env wiring).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncOS:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("index: unknown fsync policy %q (want %q or %q)", s, FsyncAlways, FsyncOS)
}

// WAL tuning defaults.
const (
	// DefaultWALSegmentBytes is the segment size beyond which appends
	// rotate to a fresh segment file.
	DefaultWALSegmentBytes = 8 << 20
	// DefaultWALCompactBytes is the total live-log size beyond which
	// the next batch triggers an automatic compaction.
	DefaultWALCompactBytes = 64 << 20
	// walHeaderSize frames every record: 4-byte little-endian payload
	// length, then 4-byte CRC-32C of the payload.
	walHeaderSize = 8
	// walMaxRecord bounds a decoded record length; a larger length is
	// treated as corruption (it would otherwise allocate garbage).
	walMaxRecord = 256 << 20
	// walSnapshotName is the compacted base state inside the WAL dir,
	// in the persist.go snapshot format.
	walSnapshotName = "snapshot.json"
)

// WAL structured error sentinels. Append and replay failures wrap
// these so the metrics registry's error family counts them by code.
var (
	errWALAppend  = errs.New("wal.append", "wal: append failed")
	errWALReplay  = errs.New("wal.replay", "wal: replay failed")
	errWALCorrupt = errs.New("wal.corrupt", "wal: record checksum mismatch")
	errWALCompact = errs.New("wal.compact", "wal: compaction failed")
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one logged mutation: the entries of one PutEntries (Op
// "put"), each in the map form Get returns (Entry.Document), or the
// present IDs of one DeleteBatch (Op "del").
type walRecord struct {
	LSN  uint64      `json:"lsn"`
	Op   string      `json:"op"`
	Docs []*Document `json:"docs,omitempty"`
	IDs  []DocID     `json:"ids,omitempty"`
}

const (
	walOpPut = "put"
	walOpDel = "del"
)

// wal is the store's log state. Writers append under the store's
// lock; compaction and recovery move the append handle while they
// hold it (or own the store outright), so no inner lock is needed.
type wal struct {
	dir          string
	policy       FsyncPolicy
	segmentBytes int64
	compactBytes int64

	lsn   uint64       // last assigned LSN
	total atomic.Int64 // live bytes across all segments

	// compactMu serializes compactions so two snapshot writers never
	// race on snapshot.json.
	compactMu sync.Mutex

	// f is the open segment (nil until the first append after open),
	// seq its sequence number and size its length in bytes.
	f    *os.File
	seq  int
	size int64

	log *slog.Logger

	appends  *metrics.Counter // index.wal_appends
	bytes    *metrics.Counter // index.wal_bytes
	replayed *metrics.Counter // index.wal_replayed
	reg      *metrics.Registry
}

// segmentName names the seq'th segment file of chain sh. The store
// writes chain 0; other chains are the earlier striped store's.
func segmentName(sh, seq int) string {
	return fmt.Sprintf("wal-%03d-%06d.log", sh, seq)
}

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (sh, seq int, ok bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	parts := strings.Split(mid, "-")
	if len(parts) != 2 {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[0], "%d", &sh); err != nil {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &seq); err != nil {
		return 0, 0, false
	}
	return sh, seq, true
}

// appendRecord frames, writes, and (per policy) fsyncs one record,
// rotating first when the segment is full. Called with the store's
// lock held, before the mutation is applied; an error means nothing
// may be applied.
func (w *wal) appendRecord(rec walRecord) error {
	w.lsn++
	rec.LSN = w.lsn
	payload, err := json.Marshal(rec)
	if err != nil {
		return w.fail(errWALAppend, err)
	}
	if len(payload) > walMaxRecord {
		return w.fail(errWALAppend, fmt.Errorf("record of %d bytes exceeds limit", len(payload)))
	}
	if w.f == nil || (w.size > 0 && w.size+int64(walHeaderSize+len(payload)) > w.segmentBytes) {
		if err := w.rotate(); err != nil {
			return w.fail(errWALAppend, err)
		}
	}
	frame := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, walCRC))
	copy(frame[walHeaderSize:], payload)
	if _, err := w.f.Write(frame); err != nil {
		// Truncate the torn frame so the segment stays appendable;
		// best effort — replay tolerates a torn tail regardless.
		_ = w.f.Truncate(w.size)
		return w.fail(errWALAppend, err)
	}
	if w.policy == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			return w.fail(errWALAppend, err)
		}
	}
	w.size += int64(len(frame))
	w.total.Add(int64(len(frame)))
	w.appends.Inc()
	w.bytes.Add(int64(len(frame)))
	return nil
}

// rotate closes the current segment (if any) and opens the next one.
func (w *wal) rotate() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	w.seq++
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(0, w.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.size = 0
	return nil
}

// fail wraps err under a wal.* sentinel and counts it in the error
// family.
func (w *wal) fail(sentinel *errs.Error, err error) error {
	wrapped := fmt.Errorf("%w: %v", sentinel, err)
	w.reg.CountError(wrapped)
	return wrapped
}

// closeFiles drops the append handle without compacting — the
// crash-simulation path tests use, and the tail of Close.
func (w *wal) closeFiles() {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
}

// compact folds the log into the snapshot and resets the segments:
// the durable state collapses to one snapshot.json and an empty log.
// Readers proceed concurrently; writers wait. Callers ensure the WAL
// is armed.
func (s *Store) compact() error {
	w := s.wal
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	// The read lock excludes writers (and so appends), which makes the
	// cut consistent and the segment reset race-free, while concurrent
	// searches keep flowing.
	s.mu.RLock()
	defer s.mu.RUnlock()
	docs := make([]*Entry, 0, len(s.docs))
	for _, e := range s.docs {
		docs = append(docs, e)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	reclaimed := w.total.Load()
	if err := WriteFileAtomic(filepath.Join(w.dir, walSnapshotName), func(f io.Writer) error {
		return writeSnapshot(f, docs)
	}); err != nil {
		return w.fail(errWALCompact, err)
	}
	if err := w.resetSegments(); err != nil {
		return w.fail(errWALCompact, err)
	}
	w.log.Info("wal compacted", "docs", len(docs), "reclaimed_bytes", reclaimed)
	return nil
}

// resetSegments deletes every segment file and opens a fresh first
// segment. Called with the store's lock held (a read lock suffices:
// it excludes writers).
func (w *wal) resetSegments() error {
	w.closeFiles()
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if _, _, ok := parseSegmentName(e.Name()); ok {
			if err := os.Remove(filepath.Join(w.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	w.seq = 0
	if err := w.rotate(); err != nil {
		return err
	}
	w.total.Store(0)
	return nil
}

// WriteFileAtomic replaces path with what write produces: into a temp
// file beside it, fsync, rename, fsync the directory. A crash or a
// failed write at any point leaves either the old file or the new one,
// never a torn one. The log's snapshot.json is written this way, and so
// is any other state file that must survive a crash whole.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Sync the directory so the renamed entry itself is durable.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close compacts the log (clean shutdown leaves one snapshot and
// empty segments) and releases every file handle. A store without a
// WAL is a no-op. The store remains usable for in-memory operations
// afterwards, but further writes fail to log.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.compact()
	s.wal.closeFiles()
	return err
}

// maybeCompact runs an automatic compaction when the live log has
// outgrown the configured bound. Called from write paths before the
// store's lock is taken.
func (s *Store) maybeCompact() {
	if s.wal != nil && s.wal.compactBytes > 0 && s.wal.total.Load() > s.wal.compactBytes {
		// Best effort: a failed auto-compaction is already counted in
		// the error family; the write itself proceeds on the old log.
		_ = s.compact()
	}
}
