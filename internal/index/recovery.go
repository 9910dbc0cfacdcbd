package index

// Crash recovery: OpenStore rebuilds a WAL-backed store from its
// directory — load the compacted snapshot, then replay every log
// record in LSN order on top. See wal.go for the log format.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
)

// OpenStore builds a store and, when WithWAL is configured, recovers
// its durable state: the latest snapshot plus every acknowledged
// write still in the log. A torn log tail (the half-written record a
// crash leaves) is truncated at the first bad checksum and never
// aborts startup; a corrupt snapshot does abort, since the snapshot
// is written atomically and damage to it is real data loss, not a
// torn tail.
func OpenStore(opts ...Option) (*Store, error) {
	cfg := defaultStoreConfig()
	for _, o := range opts {
		o(&cfg)
	}
	s := newStore(cfg)
	if cfg.walDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.walDir, 0o755); err != nil {
		return nil, fmt.Errorf("index: open: %w", err)
	}
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	w := &wal{
		dir:          cfg.walDir,
		policy:       cfg.walFsync,
		segmentBytes: cfg.walSegmentBytes,
		compactBytes: cfg.walCompactBytes,
		log:          logger,
		appends:      s.reg.Counter("index.wal_appends"),
		bytes:        s.reg.Counter("index.wal_bytes"),
		replayed:     s.reg.Counter("index.wal_replayed"),
		reg:          s.reg,
	}
	if err := s.recover(w); err != nil {
		return nil, err
	}
	// Arm logging only after replay, so recovery's applies are not
	// re-logged.
	s.wal = w
	return s, nil
}

// recover loads the snapshot and replays the log into s (whose WAL is
// not yet armed), then positions w's append handle at the live tail of
// the newest chain-0 segment.
func (s *Store) recover(w *wal) error {
	if f, err := os.Open(filepath.Join(w.dir, walSnapshotName)); err == nil {
		lerr := s.loadSnapshot(f)
		f.Close()
		if lerr != nil {
			return w.fail(errWALReplay, fmt.Errorf("%s: %w", walSnapshotName, lerr))
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return w.fail(errWALReplay, err)
	}
	recs, err := w.scanSegments()
	if err != nil {
		return err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	for _, rec := range recs {
		switch rec.Op {
		case walOpPut:
			if err := s.PutBatch(rec.Docs); err != nil {
				return w.fail(errWALReplay, fmt.Errorf("apply record lsn=%d: %w", rec.LSN, err))
			}
		case walOpDel:
			s.DeleteBatch(rec.IDs)
		default:
			// An unknown op from a future format: surface, don't guess.
			return w.fail(errWALReplay, fmt.Errorf("record lsn=%d has unknown op %q", rec.LSN, rec.Op))
		}
	}
	w.replayed.Add(int64(len(recs)))
	if len(recs) > 0 {
		// recs is sorted by LSN, so the range is first..last. The
		// replayed-LSN range used to be visible only as a counter; an
		// operator diagnosing recovery needs the actual positions.
		w.lsn = recs[len(recs)-1].LSN
		w.log.Info("wal replay complete",
			"records", len(recs), "min_lsn", recs[0].LSN, "max_lsn", w.lsn)
	} else {
		w.log.Debug("wal replay complete", "records", 0)
	}
	// Reopen the newest chain-0 segment for appending; without one, the
	// first append opens one (rotate).
	if w.seq > 0 {
		f, err := os.OpenFile(filepath.Join(w.dir, segmentName(0, w.seq)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return w.fail(errWALReplay, err)
		}
		w.f = f
	}
	return nil
}

// scanSegments reads every record from every segment file, whatever
// its chain, truncating each file at its first bad frame (torn tail).
// It returns the records, sets w.total to the surviving bytes, and
// sets w.seq and w.size to the newest chain-0 segment's.
func (w *wal) scanSegments() ([]walRecord, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, w.fail(errWALReplay, err)
	}
	var recs []walRecord
	for _, e := range entries {
		chain, seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		path := filepath.Join(w.dir, e.Name())
		fileRecs, goodBytes, err := scanSegmentFile(path)
		if err != nil {
			return nil, w.fail(errWALReplay, err)
		}
		if fi, err := os.Stat(path); err == nil && fi.Size() > goodBytes {
			// Torn or corrupt tail: count it, cut it, keep going — but
			// say where the cut landed, not just that one happened (the
			// old silent wal.corrupt count left no way to find the
			// damaged segment).
			w.reg.CountError(fmt.Errorf("%w: %s at offset %d", errWALCorrupt, e.Name(), goodBytes))
			w.log.Warn("wal torn tail truncated",
				"code", "wal.corrupt", "segment", e.Name(),
				"offset", goodBytes, "dropped_bytes", fi.Size()-goodBytes)
			if err := os.Truncate(path, goodBytes); err != nil {
				return nil, w.fail(errWALReplay, err)
			}
		}
		w.total.Add(goodBytes)
		if chain == 0 && seq > w.seq {
			w.seq, w.size = seq, goodBytes
		}
		recs = append(recs, fileRecs...)
	}
	return recs, nil
}

// scanSegmentFile decodes records until EOF or the first bad frame,
// returning the good records and how many bytes they span. IO errors
// reading the file are returned; framing/checksum damage is not an
// error — the caller truncates at goodBytes. A header's length is
// believed only as far as the file reaches: a payload buffer is never
// larger than the bytes left to fill it.
func scanSegmentFile(path string) (recs []walRecord, goodBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	var header [walHeaderSize]byte
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			return recs, goodBytes, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length > walMaxRecord || int64(length) > fi.Size()-goodBytes-walHeaderSize {
			return recs, goodBytes, nil // corrupt length, or a torn payload
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, goodBytes, nil // torn payload
		}
		if crc32.Checksum(payload, walCRC) != sum {
			return recs, goodBytes, nil // flipped bits
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, goodBytes, nil // checksummed garbage: treat as cut
		}
		recs = append(recs, rec)
		goodBytes += int64(walHeaderSize) + int64(length)
	}
}
