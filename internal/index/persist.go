package index

import (
	"encoding/json"
	"fmt"
	"io"
)

// snapshot is the serialized store form the WAL compacts into
// (snapshot.json, see wal.go): documents only; the inverted index is
// rebuilt on load (it is derived state).
type snapshot struct {
	Version   int         `json:"version"`
	Documents []*Document `json:"documents"`
}

// snapshotVersion guards against future format changes.
const snapshotVersion = 1

// writeSnapshot encodes already-collected, already-sorted documents.
func writeSnapshot(w io.Writer, docs []*Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(snapshot{Version: snapshotVersion, Documents: docs}); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// loadSnapshot decodes a snapshot into s, which recovery has just built
// and whose WAL is not yet armed: the documents go in through PutBatch,
// the path log replay takes, so an ID-less document rejects the whole
// snapshot before anything is stored.
func (s *Store) loadSnapshot(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return err
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("unsupported snapshot version %d", snap.Version)
	}
	return s.PutBatch(snap.Documents)
}
