package index

// Write-ahead logging for the sharded store. Every mutation
// (Put/PutBatch/Delete/DeleteBatch) appends a framed, checksummed
// record to an append-only log *before* touching the in-memory shard,
// so a store that acknowledged a write can reproduce it after a crash:
// on open, the latest snapshot is loaded and the log replayed on top
// (see recovery.go). A torn tail — the partially written record a
// crash leaves behind — is truncated at the first bad checksum and
// never aborts startup.
//
// The log is per-shard: shard i appends to its own segment files
// (wal-<shard>-<seq>.log), under the same mutex that guards the
// shard's maps, so WAL appends add no cross-shard contention. Replay
// order across files is fixed by a global log sequence number (LSN)
// stamped into every record; recovery merges all segments and applies
// records in LSN order, which preserves cross-shard operation order
// even if the store reopens with a different shard count.
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
	// DefaultWALSegmentBytes is the per-shard segment size beyond
	// which appends rotate to a fresh segment file.
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

// walRecord is one logged mutation: the documents one shard received
// from a PutBatch (Op "put"), or the IDs a shard dropped from a
// DeleteBatch (Op "del"). LSNs are globally ordered across shards.
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

// shardLog is one shard's append handle. Writers mutate it under the
// owning shard's mutex; compaction and recovery mutate it while every
// shard mutex (or exclusive store ownership) is held, so no inner
// lock is needed.
type shardLog struct {
	f    *os.File
	seq  int
	size int64
}

// wal is the store-wide log state: one shardLog per stripe plus the
// shared sequencing, sizing, and telemetry.
type wal struct {
	dir          string
	policy       FsyncPolicy
	segmentBytes int64
	compactBytes int64

	lsn   atomic.Uint64 // last assigned LSN
	total atomic.Int64  // live bytes across all segments

	// compactMu serializes compactions so two snapshot writers never
	// race on snapshot.json.
	compactMu sync.Mutex

	logs []*shardLog

	log *slog.Logger

	appends  *metrics.Counter // index.wal_appends
	bytes    *metrics.Counter // index.wal_bytes
	replayed *metrics.Counter // index.wal_replayed
	reg      *metrics.Registry
}

// segmentName names shard sh's seq'th segment file.
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

// appendRecord frames, writes, and (per policy) fsyncs one record to
// shard idx's segment, rotating first when the segment is full. Called
// with shard idx's mutex held, before the mutation is applied; an
// error means nothing may be applied.
func (w *wal) appendRecord(idx uint32, rec walRecord) error {
	rec.LSN = w.lsn.Add(1)
	payload, err := json.Marshal(rec)
	if err != nil {
		return w.fail(errWALAppend, err)
	}
	if len(payload) > walMaxRecord {
		return w.fail(errWALAppend, fmt.Errorf("record of %d bytes exceeds limit", len(payload)))
	}
	sl := w.logs[idx]
	if sl.f == nil || (sl.size > 0 && sl.size+int64(walHeaderSize+len(payload)) > w.segmentBytes) {
		if err := w.rotate(sl, int(idx)); err != nil {
			return w.fail(errWALAppend, err)
		}
	}
	frame := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, walCRC))
	copy(frame[walHeaderSize:], payload)
	if _, err := sl.f.Write(frame); err != nil {
		// Truncate the torn frame so the segment stays appendable;
		// best effort — replay tolerates a torn tail regardless.
		_ = sl.f.Truncate(sl.size)
		return w.fail(errWALAppend, err)
	}
	if w.policy == FsyncAlways {
		if err := sl.f.Sync(); err != nil {
			return w.fail(errWALAppend, err)
		}
	}
	sl.size += int64(len(frame))
	w.total.Add(int64(len(frame)))
	w.appends.Inc()
	w.bytes.Add(int64(len(frame)))
	return nil
}

// rotate closes the current segment (if any) and opens the next one.
func (w *wal) rotate(sl *shardLog, idx int) error {
	if sl.f != nil {
		if err := sl.f.Close(); err != nil {
			return err
		}
	}
	sl.seq++
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(idx, sl.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	sl.f = f
	sl.size = 0
	return nil
}

// fail wraps err under a wal.* sentinel and counts it in the error
// family.
func (w *wal) fail(sentinel *errs.Error, err error) error {
	wrapped := fmt.Errorf("%w: %v", sentinel, err)
	w.reg.CountError(wrapped)
	return wrapped
}

// closeFiles drops every append handle without compacting — the
// crash-simulation path tests use, and the tail of Close.
func (w *wal) closeFiles() {
	for _, sl := range w.logs {
		if sl.f != nil {
			_ = sl.f.Close()
			sl.f = nil
		}
	}
}

// compact folds the log into the snapshot and resets every segment:
// the durable state collapses to one snapshot.json and empty logs.
// Readers proceed concurrently; writers wait (every shard is
// read-locked for the duration). A cross-shard batch may be caught
// half applied: the parts it has not yet logged are appended to the
// fresh log after the reset, so recovery still sees all of it.
// Callers ensure the WAL is armed.
func (s *Store) compact() error {
	w := s.wal
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	// Read-locking all shards excludes writers (and so appends), which
	// makes the cut consistent and the segment reset race-free, while
	// concurrent searches keep flowing.
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.RUnlock()
		}
	}()
	var docs []*Document
	for _, sh := range s.shards {
		for _, d := range sh.docs {
			docs = append(docs, d)
		}
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
// segment per shard. Called with all shards locked (or during open).
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
	for i, sl := range w.logs {
		sl.seq = 0
		sl.size = 0
		if err := w.rotate(sl, i); err != nil {
			return err
		}
		sl.seq = 1 // rotate incremented from 0
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
// outgrown the configured bound. Called from write paths before any
// shard lock is held.
func (s *Store) maybeCompact() {
	if s.wal != nil && s.wal.compactBytes > 0 && s.wal.total.Load() > s.wal.compactBytes {
		// Best effort: a failed auto-compaction is already counted in
		// the error family; the write itself proceeds on the old log.
		_ = s.compact()
	}
}
