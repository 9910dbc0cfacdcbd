package index

import (
	"bufio"
	"bytes"
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
// The bytes are those of one json.Encoder call on the whole snapshot
// with a one-space indent, but each document is encoded on its own, so
// the buffer behind them is one document's size, not the store's.
// (A store-sized buffer would also outlive the call: encoding/json
// keeps its buffers in a sync.Pool, where one survives the next
// collection.)
func writeSnapshot(w io.Writer, docs []*Entry) error {
	bw := bufio.NewWriter(w)
	var doc bytes.Buffer
	enc := json.NewEncoder(&doc)
	enc.SetIndent("  ", " ")
	fmt.Fprintf(bw, "{\n \"version\": %d,\n \"documents\": [", snapshotVersion)
	for i, d := range docs {
		doc.Reset()
		if err := enc.Encode(d.Document()); err != nil {
			return fmt.Errorf("index: save: %w", err)
		}
		bw.WriteString("\n  ")
		bw.Write(bytes.TrimSuffix(doc.Bytes(), []byte("\n")))
		if i < len(docs)-1 {
			bw.WriteByte(',')
		}
	}
	if len(docs) > 0 {
		bw.WriteString("\n ")
	}
	bw.WriteString("]\n}\n")
	if err := bw.Flush(); err != nil {
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
