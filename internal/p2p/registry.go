package p2p

import (
	"sync"

	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/transport"
)

// registry is a hub's registration state. A hub is a node that indexes
// other peers' registrations: the IndexServer for Napster clients, a
// SuperPeer for its FastTrack leaves. Both receive the same register,
// register-batch and unregister frames, and both embed this one type,
// so a registration means the same thing, and a search of them returns
// the same results in the same order, whichever overlay carried it.
//
// Metadata lives in the same index.Store the peers use locally, so a
// hub's search walks the inverted index's sorted postings to its limit
// instead of scanning a flat entry map; the registry only adds a provider table
// mapping each DocID to the peers serving it. Registrations are soft
// state that peers re-announce (reconnection, Rehome), so a hub keeps
// them in memory only.
type registry struct {
	// mu serializes registration state: providers and the matching
	// store entries mutate together under it (TCP dispatches handlers
	// on per-connection goroutines, so a register and an unregister
	// for one DocID can race), keeping the invariant that every
	// stored document has at least one provider. Searches take
	// mu.RLock across the store query and the provider expansion so
	// they observe one consistent registration state.
	mu        sync.RWMutex
	store     *index.Store
	providers map[index.DocID][]transport.PeerID // registration order
}

// Len returns the number of distinct registered documents.
func (r *registry) Len() int { return r.store.Len() }

// DropPeer removes all registrations from a peer (a departure the hub
// noticed). Documents left without any provider leave the metadata
// store in one batch.
func (r *registry) DropPeer(peer transport.PeerID) {
	var orphaned []index.DocID
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := range r.providers {
		if r.removeProviderLocked(id, peer) {
			orphaned = append(orphaned, id)
		}
	}
	r.store.DeleteBatch(orphaned)
}

// serveRegistration handles the frames a peer registers with — register,
// register-batch and unregister — on behalf of the hub p, and reports
// whether msg was one of them.
func (r *registry) serveRegistration(p *Peer, msg transport.Message) bool {
	switch msg.Type {
	case MsgRegister:
		var reg registerPayload
		if err := reg.DecodeBinary(msg.Payload); err != nil {
			return true
		}
		sp := p.StartSpan(msg, "register.serve")
		r.register(msg.From, []registerPayload{reg})
		sp.Finish()
	case MsgRegisterBatch:
		var batch registerBatchPayload
		if err := batch.DecodeBinary(msg.Payload); err != nil {
			return true
		}
		sp := p.StartSpan(msg, "register.serve")
		r.register(msg.From, batch.Docs)
		sp.Finish()
	case MsgUnregister:
		var unreg unregisterPayload
		if err := unreg.DecodeBinary(msg.Payload); err != nil {
			return true
		}
		r.unregister(msg.From, unreg.DocID)
	default:
		return false
	}
	return true
}

// register records from as a provider of each document and upserts the
// metadata in one store batch. A provider already known keeps its
// place; a new one is appended. Replicas are content-addressed, so a
// re-registration refreshes metadata identically for every provider.
func (r *registry) register(from transport.PeerID, regs []registerPayload) {
	docs := make([]*index.Document, 0, len(regs))
	for _, reg := range regs {
		if reg.DocID == "" {
			continue
		}
		docs = append(docs, &index.Document{
			ID:          reg.DocID,
			CommunityID: reg.CommunityID,
			Title:       reg.Title,
			Attrs:       reg.Attrs,
		})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.providers == nil {
		r.providers = make(map[index.DocID][]transport.PeerID)
	}
	for _, doc := range docs {
		provs := r.providers[doc.ID]
		known := false
		for _, p := range provs {
			if p == from {
				known = true
				break
			}
		}
		if !known {
			r.providers[doc.ID] = append(provs, from)
		}
	}
	_ = r.store.PutBatch(docs)
}

// unregister withdraws from's registration of one document; the
// document leaves the store with its last provider.
func (r *registry) unregister(from transport.PeerID, id index.DocID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.removeProviderLocked(id, from) {
		r.store.Delete(id)
	}
}

// removeProviderLocked strikes peer from id's providers and reports
// whether none is left, in which case id leaves the table (caller holds
// mu for writing).
func (r *registry) removeProviderLocked(id index.DocID, peer transport.PeerID) bool {
	provs := r.providers[id]
	kept := provs[:0]
	for _, p := range provs {
		if p != peer {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		delete(r.providers, id)
		return true
	}
	r.providers[id] = kept
	return false
}

// search returns one result per (matching document, provider): the
// documents in DocID order, each one's providers in registration
// order, at most limit results (0 = unlimited), in one slice sized from
// the documents' provider counts before it is filled.
func (r *registry) search(communityID string, f query.Filter, limit int) []Result {
	// The whole read runs under mu so the store query and the
	// provider expansion see one consistent registration state
	// (lock order mu -> store, same as register). Every stored
	// document then has at least one provider, so limit docs yield at
	// least limit results and the store never materializes more
	// matches than the client asked for. The results are only encoded
	// into a reply, so they carry the store's documents (answerOf).
	r.mu.RLock()
	defer r.mu.RUnlock()
	docs := r.store.SearchReadOnly(communityID, f, limit)
	n := 0
	for _, d := range docs {
		n += len(r.providers[d.ID])
	}
	if limit > 0 {
		n = min(n, limit)
	}
	out := make([]Result, 0, n)
	for _, d := range docs {
		for _, p := range r.providers[d.ID] {
			out = append(out, answerOf(d, p))
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}
