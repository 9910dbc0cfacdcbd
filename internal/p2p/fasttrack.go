package p2p

import (
	"sort"

	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/transport"
)

// FastTrack-style super-peer protocol: the third network named in the
// paper's Fig. 3 protocol enumeration. Ordinary peers (leaves) attach
// to one super-peer and upload their metadata to it, as Napster
// clients do to the central server; super-peers flood queries among
// themselves, as Gnutella nodes do. The hybrid bounds flooding to the
// (much smaller) super-peer overlay while avoiding a single central
// index.
//
// Message reuse: leaves speak the centralized wire protocol
// (register/unregister/search) to their super-peer; super-peers speak
// the Gnutella wire protocol (query/query-hit) among themselves.
// Retrieval is the shared direct fetch protocol in both roles.

// serverEntry is one leaf registration on a super-peer.
type serverEntry struct {
	provider    transport.PeerID
	communityID string
	title       string
	attrs       query.Attrs
}

// SuperPeer is a FastTrack hub: it indexes its leaves' metadata and
// floods queries across the super-peer overlay through the floodRouter
// it shares with GnutellaNode.
type SuperPeer struct {
	floodRouter

	// Guarded by the router's mu.
	leafIndex map[index.DocID][]serverEntry
	// docIDs mirrors leafIndex's keys in sorted order, maintained on
	// registration/removal, so every search iterates deterministically
	// without re-sorting the keyset on the query hot path.
	docIDs []index.DocID
}

// NewSuperPeer attaches a super-peer to the network.
func NewSuperPeer(ep transport.Endpoint) *SuperPeer {
	s := &SuperPeer{leafIndex: make(map[index.DocID][]serverEntry)}
	// A super-peer indexes its leaves' metadata and shares no objects.
	s.floodRouter.init(ep, nil, "fasttrack", func(communityID string, f query.Filter) []Result {
		return s.localSearch(communityID, f, 0)
	})
	ep.SetHandler(s.handle)
	return s
}

// Len returns the number of distinct documents indexed for leaves.
func (s *SuperPeer) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.leafIndex)
}

// DropLeaf removes a departed leaf's registrations.
func (s *SuperPeer) DropLeaf(peer transport.PeerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, entries := range s.leafIndex {
		kept := entries[:0]
		for _, e := range entries {
			if e.provider != peer {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(s.leafIndex, id)
			s.removeDocIDLocked(id)
		} else {
			s.leafIndex[id] = kept
		}
	}
}

// insertDocIDLocked adds id to the sorted keyset mirror (caller holds
// mu; no-op if present).
func (s *SuperPeer) insertDocIDLocked(id index.DocID) {
	i := sort.Search(len(s.docIDs), func(k int) bool { return s.docIDs[k] >= id })
	if i < len(s.docIDs) && s.docIDs[i] == id {
		return
	}
	s.docIDs = append(s.docIDs, "")
	copy(s.docIDs[i+1:], s.docIDs[i:])
	s.docIDs[i] = id
}

// removeDocIDLocked drops id from the sorted keyset mirror (caller
// holds mu).
func (s *SuperPeer) removeDocIDLocked(id index.DocID) {
	i := sort.Search(len(s.docIDs), func(k int) bool { return s.docIDs[k] >= id })
	if i < len(s.docIDs) && s.docIDs[i] == id {
		s.docIDs = append(s.docIDs[:i], s.docIDs[i+1:]...)
	}
}

func (s *SuperPeer) handle(msg transport.Message) {
	switch msg.Type {
	case MsgRegister:
		var reg registerPayload
		if err := s.cdc.DecodeValue(&reg, msg.Payload); err != nil {
			return
		}
		sp, _ := s.StartSpan(msg, "register.serve")
		s.registerLeaf(msg.From, []registerPayload{reg})
		sp.Finish()
	case MsgRegisterBatch:
		var batch registerBatchPayload
		if err := s.cdc.DecodeValue(&batch, msg.Payload); err != nil {
			return
		}
		sp, _ := s.StartSpan(msg, "register.serve")
		s.registerLeaf(msg.From, batch.Docs)
		sp.Finish()
	case MsgUnregister:
		var unreg unregisterPayload
		if err := s.cdc.DecodeValue(&unreg, msg.Payload); err != nil {
			return
		}
		s.mu.Lock()
		entries := s.leafIndex[unreg.DocID]
		kept := entries[:0]
		for _, e := range entries {
			if e.provider != msg.From {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(s.leafIndex, unreg.DocID)
			s.removeDocIDLocked(unreg.DocID)
		} else {
			s.leafIndex[unreg.DocID] = kept
		}
		s.mu.Unlock()
	case MsgSearch:
		// A leaf's search: answer from the local leaf index, then flood
		// the super-peer overlay and merge.
		s.handleLeafSearch(msg)
	case MsgQuery:
		s.handleQuery(msg)
	case MsgQueryHit:
		s.handleQueryHit(msg)
	default:
		s.HandleRetrieval(msg)
	}
}

// registerLeaf upserts one leaf's registrations (single or batched).
func (s *SuperPeer) registerLeaf(from transport.PeerID, regs []registerPayload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, reg := range regs {
		entries := s.leafIndex[reg.DocID]
		if len(entries) == 0 {
			s.insertDocIDLocked(reg.DocID)
		}
		replaced := false
		for i, e := range entries {
			if e.provider == from {
				entries[i] = serverEntry{from, reg.CommunityID, reg.Title, reg.Attrs}
				replaced = true
				break
			}
		}
		if !replaced {
			entries = append(entries, serverEntry{from, reg.CommunityID, reg.Title, reg.Attrs})
		}
		s.leafIndex[reg.DocID] = entries
	}
}

// handleLeafSearch serves a leaf: local hits immediately, remote hits
// gathered by flooding other super-peers.
func (s *SuperPeer) handleLeafSearch(msg transport.Message) {
	var req searchPayload
	if err := s.cdc.DecodeValue(&req, msg.Payload); err != nil {
		return
	}
	sp, tctx := s.StartSpan(msg, "leaf.search")
	sp.SetCommunity(req.CommunityID)
	defer sp.Finish()
	f, err := query.Parse(req.Filter)
	if err != nil {
		f = query.MatchAll{}
	}
	local := s.localSearch(req.CommunityID, f, req.Limit)
	guid, col, err := s.originate(req.CommunityID, f, DefaultTTL, req.Limit, local, &sp, tctx)
	if err != nil {
		return
	}
	// On the synchronous simulator the flood has completed; reply with
	// everything collected. (Over TCP a production implementation would
	// defer the reply; the experiments run on the simulator.)
	merged := col.snapshot(req.Limit)
	s.release(guid)
	// A lost reply is the leaf's timeout.
	_ = s.Send(msg.From, MsgSearchHit, &searchHitPayload{ReqID: req.ReqID, Results: merged}, &sp, tctx)
}

// localSearch scans the leaf index in DocID order (providers keep
// registration order within a document), so identical registrations
// always yield identically ordered hits — map-order results would leak
// nondeterminism into every query-hit payload. The sorted docIDs
// mirror makes this free at query time.
func (s *SuperPeer) localSearch(communityID string, f query.Filter, limit int) []Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Result
	for _, id := range s.docIDs {
		for _, e := range s.leafIndex[id] {
			if communityID != "" && e.communityID != communityID {
				continue
			}
			if !f.Match(e.attrs) {
				continue
			}
			out = append(out, Result{
				DocID:       id,
				Provider:    e.provider,
				CommunityID: e.communityID,
				Title:       e.title,
				Attrs:       e.attrs,
			})
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// FastTrackLeaf is an ordinary peer in the super-peer network. Its
// wire behaviour toward the super-peer is exactly the centralized
// client's, so it simply wraps one — including Rehome, which moves the
// leaf to a live super-peer and re-registers its documents after its
// super-peer fails.
type FastTrackLeaf struct {
	*CentralizedClient
}

var _ Network = (*FastTrackLeaf)(nil)

// NewFastTrackLeaf attaches a leaf to its super-peer.
func NewFastTrackLeaf(ep transport.Endpoint, super transport.PeerID, store *index.Store) *FastTrackLeaf {
	return &FastTrackLeaf{newRegisteringClient(ep, super, store, "fasttrack")}
}
