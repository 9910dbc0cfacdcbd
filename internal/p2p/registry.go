package p2p

import (
	"sync"

	"repro/internal/index"
	"repro/internal/p2p/codec"
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
// hub's search walks the inverted index's sorted runs of postings to
// its limit instead of scanning a flat entry map; the registry only adds a provider table
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

// register records from as a provider of each registration and
// upserts their entries in one store batch: each entry holds the
// registration's own strings (readFrom), so no map is built and no
// frame is kept. A provider already known keeps its place; a new one is
// appended. Replicas are content-addressed, so a re-registration
// refreshes metadata identically for every provider.
func (r *registry) register(from transport.PeerID, regs []registerPayload) {
	es := make([]*index.Entry, 0, len(regs))
	for i := range regs {
		if regs[i].DocID != "" {
			es = append(es, regs[i].entry())
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.providers == nil {
		r.providers = make(map[index.DocID][]transport.PeerID)
	}
	for _, e := range es {
		provs := r.providers[e.ID]
		known := false
		for _, p := range provs {
			if p == from {
				known = true
				break
			}
		}
		if !known {
			r.providers[e.ID] = append(provs, from)
		}
	}
	_ = r.store.PutEntries(es)
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

// A search of the registrations makes one result per (matching entry,
// provider): the entries in DocID order, each one's providers in
// registration order, at most limit results (0 = unlimited). search
// returns them as Results, for a super-peer to merge with its flood's;
// appendAnswer writes them onto the wire. Either way the whole read runs
// under mu, so the store query and the provider expansion see one
// consistent registration state (lock order mu -> store, same as
// register). Every stored entry then has at least one provider, so
// limit entries yield at least limit results and the store never
// returns more matches than the searcher asked for.

// matchesLocked runs a search of the registrations: it returns the
// entries it matched, appended to out, and the number of results they
// make (caller holds mu).
func (r *registry) matchesLocked(communityID string, f query.Filter, limit int, out []*index.Entry) ([]*index.Entry, int) {
	es := r.store.Search(communityID, f, limit, out...)
	n := 0
	for _, e := range es {
		n += len(r.providers[e.ID])
	}
	if limit > 0 {
		n = min(n, limit)
	}
	return es, n
}

// eachLocked calls yield for each of the n results the matched entries
// es make, in order (caller holds mu).
func (r *registry) eachLocked(es []*index.Entry, n int, yield func(*index.Entry, transport.PeerID)) {
	for _, e := range es {
		for _, p := range r.providers[e.ID] {
			if n == 0 {
				return
			}
			yield(e, p)
			n--
		}
	}
}

// search returns the results in one slice sized before it is filled;
// each shares its entry's strings and attribute set (ResultOf).
func (r *registry) search(communityID string, f query.Filter, limit int) []Result {
	r.mu.RLock()
	defer r.mu.RUnlock()
	es, n := r.matchesLocked(communityID, f, limit, nil)
	out := make([]Result, 0, n)
	r.eachLocked(es, n, func(e *index.Entry, p transport.PeerID) { out = append(out, ResultOf(e, p)) })
	return out
}

// appendAnswer implements answerer: the results, written straight from
// the entries as a hit frame's result set.
func (r *registry) appendAnswer(dst []byte, sc *serveScratch, communityID string, f query.Filter, limit, hops int) ([]byte, int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int
	sc.matches, n = r.matchesLocked(communityID, f, limit, sc.matches[:0])
	dst = codec.AppendUvarint(dst, uint64(n))
	r.eachLocked(sc.matches, n, func(e *index.Entry, p transport.PeerID) { dst = appendEntryResult(dst, e, p, hops) })
	return dst, n
}
