package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// serventState is the serialized servent: joined communities (by their
// full spec, so schemas and custom stylesheets survive) and the
// attachment store. Shared objects live in the index store, persisted
// separately by its write-ahead log (index.OpenStore with WithWAL).
type serventState struct {
	Version     int               `json:"version"`
	Communities []CommunitySpec   `json:"communities"`
	CommunityID []string          `json:"communityIds"`
	Attachments map[string][]byte `json:"attachments"`
}

// stateVersion guards the on-disk format.
const stateVersion = 1

// SaveState serializes joined communities (except the compiled-in
// root) and the attachment store.
func (s *Servent) SaveState(w io.Writer) error {
	s.mu.RLock()
	st := serventState{Version: stateVersion, Attachments: make(map[string][]byte, len(s.attachments))}
	ids := make([]string, 0, len(s.communities))
	for id := range s.communities {
		if id != RootCommunityID {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		c := s.communities[id]
		st.Communities = append(st.Communities, CommunitySpec{
			Name:            c.Name,
			Description:     c.Description,
			Keywords:        c.Keywords,
			Category:        c.Category,
			Security:        c.Security,
			Protocol:        c.Protocol,
			SchemaSrc:       c.SchemaSrc,
			DisplayStyleSrc: c.DisplayStyleSrc,
			CreateStyleSrc:  c.CreateStyleSrc,
			SearchStyleSrc:  c.SearchStyleSrc,
			IndexStyleSrc:   c.IndexStyleSrc,
		})
		st.CommunityID = append(st.CommunityID, id)
	}
	for uri, data := range s.attachments {
		st.Attachments[uri] = data
	}
	s.mu.RUnlock()
	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		return fmt.Errorf("core: save state: %w", err)
	}
	return nil
}

// LoadState restores communities and attachments saved by SaveState.
// Shared objects are restored separately by loading the index store.
// Loaded community IDs are re-derived from content, so a state file
// from any peer installs identically.
//
// The load is all-or-nothing: every community spec is built and
// validated (schema, indexing stylesheet, ID drift) before any of
// them is installed, so a corrupt entry in the middle of the file
// cannot leave the servent half-restored.
func (s *Servent) LoadState(r io.Reader) error {
	var st serventState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: load state: %w", err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("core: load state: unsupported version %d", st.Version)
	}
	staged := make([]*Community, 0, len(st.Communities))
	for i, spec := range st.Communities {
		c, err := NewCommunity(spec)
		if err != nil {
			return fmt.Errorf("core: load community %d: %w", i, err)
		}
		if i < len(st.CommunityID) && st.CommunityID[i] != c.ID {
			return fmt.Errorf("core: load community %q: ID drift (%s -> %s)",
				spec.Name, st.CommunityID[i], c.ID)
		}
		staged = append(staged, c)
	}
	s.mu.Lock()
	for _, c := range staged {
		s.communities[c.ID] = c
	}
	for uri, data := range st.Attachments {
		s.attachments[uri] = data
	}
	s.mu.Unlock()
	return nil
}
