package index

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// snapshot is the serialized store form: documents only; the inverted
// index is rebuilt on load (it is derived state). The format is
// independent of the shard count, so snapshots move freely between
// store configurations. The WAL's compacted base state (wal.go) uses
// the same format.
type snapshot struct {
	Version   int         `json:"version"`
	Documents []*Document `json:"documents"`
}

// snapshotVersion guards against future format changes.
const snapshotVersion = 1

// Save writes the store's documents as JSON. The snapshot is a
// consistent cut — every shard is read-locked before any document is
// copied, and no cross-shard PutBatch is under way while they are being
// locked (Store.cut), so a concurrent batch appears either wholly or
// not at all — and deterministic (documents sorted by ID) so backups
// diff cleanly. Concurrent readers and writers are safe; writers wait
// while the cut is taken (not while it is encoded).
func (s *Store) Save(w io.Writer) error {
	s.cut.Lock()
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	s.cut.Unlock()
	var docs []*Document
	for _, sh := range s.shards {
		for _, d := range sh.docs {
			docs = append(docs, d.clone())
		}
	}
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	return writeSnapshot(w, docs)
}

// writeSnapshot encodes already-collected, already-sorted documents.
func writeSnapshot(w io.Writer, docs []*Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(snapshot{Version: snapshotVersion, Documents: docs}); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// Load replaces the store's contents with a snapshot written by Save,
// rebuilding the inverted index. The snapshot is fully decoded,
// validated, and staged into fresh shard state before anything is
// installed: on any error the store is left exactly as it was, and
// the swap itself happens under every shard lock, so concurrent
// readers see either the old contents or the new, never a mix.
// With a WAL armed, a successful load compacts, making the loaded
// state the new durable base.
func (s *Store) Load(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("index: load: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("index: load: unsupported snapshot version %d", snap.Version)
	}
	for _, d := range snap.Documents {
		if d == nil || d.ID == "" {
			return fmt.Errorf("index: load: %w", ErrNoID)
		}
	}
	// Stage into detached shard states (same dedupe semantics as
	// PutBatch: last occurrence of an ID wins, deduped globally so an
	// ID re-filed under another community cannot ghost in two shards).
	staged := make([]*shard, len(s.shards))
	for i := range staged {
		staged[i] = &shard{
			docs:        make(map[DocID]*Document),
			byCommunity: make(map[string]map[DocID]struct{}),
			inverted:    make(map[string]map[string]map[DocID]struct{}),
		}
	}
	order := make([]DocID, 0, len(snap.Documents))
	byID := make(map[DocID]*Document, len(snap.Documents))
	for _, d := range snap.Documents {
		if _, seen := byID[d.ID]; !seen {
			order = append(order, d.ID)
		}
		byID[d.ID] = d
	}
	for _, id := range order {
		cp := byID[id].clone()
		staged[s.shardIndex(cp.CommunityID)].putLocked(cp)
	}
	// Swap, atomically with respect to every reader and writer.
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	s.dir.Range(func(k, _ any) bool {
		s.dir.Delete(k)
		return true
	})
	for i, sh := range s.shards {
		sh.docs = staged[i].docs
		sh.byCommunity = staged[i].byCommunity
		sh.inverted = staged[i].inverted
		sh.postings = staged[i].postings
		sh.gen++
		for id := range sh.docs {
			s.dir.Store(id, uint32(i))
		}
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	if s.wal != nil {
		return s.Compact()
	}
	return nil
}
