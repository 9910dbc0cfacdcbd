package dht

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/errs"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// lookupRPC is one in-flight wave RPC.
type lookupRPC struct {
	contact Contact
	x       p2p.Exchange
}

// lookupScratch pools a lookup's working state — shortlist, wave, and
// bookkeeping maps — so the per-lookup steady state reuses slice
// capacity and map buckets instead of reallocating them. Pooled (not
// one-per-node) because one node runs concurrent lookups: each gets its
// own scratch. The value set in hand is not pooled: it is the slice the
// lookup hands its caller (lookupOutcome.results).
type lookupScratch struct {
	short []Contact
	wave  []lookupRPC
	state map[transport.PeerID]peerState
	known map[transport.PeerID]bool
	// held is the digest each holder announced for its matching set;
	// have the digest of the value set in hand, seen the digests of the
	// sets it is known to contain.
	held map[transport.PeerID]setDigest
	have setDigest
	seen []setDigest
	// own gathers this node's held slice, merged into the set in hand at
	// the start.
	own []p2p.Result
	// findNode and findValue are the waves' request frames: Send encodes
	// one before it returns, so each RPC rewrites it. findValue is zeroed
	// when the lookup ends, so the pool pins no strings of its query.
	findNode  findNodePayload
	findValue findValuePayload
}

// merge folds one received set into res, the set in hand, and returns
// it. res is kept in (DocID, Provider) order, the order every holder
// ships its set in; a set out of that order, which no honest holder
// sends, is sorted first, so a hostile reply costs a sort, not an
// insert per record. One pass counts the records res lacks, res grows
// once by that many (a set already in hand costs no room), and a second
// pass merges from the back, so every result moves at most once per
// set. A record already in hand is replaced by the set's copy; of
// copies repeated within a set, one is kept.
func (sc *lookupScratch) merge(res, records []p2p.Result) []p2p.Result {
	if len(records) == 0 {
		return res
	}
	if !slices.IsSortedFunc(records, func(a, b p2p.Result) int { return compareResults(&a, &b) }) {
		sortRecords(records)
	}
	lacks, i := 0, 0
	for j := range records {
		rec := &records[j]
		if j > 0 && compareResults(&records[j-1], rec) == 0 {
			continue
		}
		for i < len(res) && compareResults(&res[i], rec) < 0 {
			i++
		}
		if i == len(res) || compareResults(&res[i], rec) != 0 {
			lacks++
		}
	}
	n := len(res)
	res = slices.Grow(res, lacks)[:n+lacks]
	var set setDigest
	i, w := n-1, n+lacks-1
	for j := len(records) - 1; j >= 0; j-- {
		rec := &records[j]
		h := recordHash(rec.DocID, rec.Provider)
		set.add(h)
		if j+1 < len(records) && compareResults(rec, &records[j+1]) == 0 {
			continue // the later copy is in place
		}
		for i >= 0 && compareResults(&res[i], rec) > 0 {
			res[w] = res[i]
			i, w = i-1, w-1
		}
		if i >= 0 && compareResults(&res[i], rec) == 0 {
			i-- // in hand: the set's copy takes its place
		} else {
			sc.have.add(h)
		}
		res[w] = *rec
		w--
	}
	sc.seen = append(sc.seen, set, sc.have)
	return res
}

// learn appends the peers of one reply that are new to the lookup to
// its shortlist. A reply's strings share its frame; contacts outlive the
// lookup (STORE targets, the holders an announce remembers, connections
// dialed), so each takes its own copy.
func (sc *lookupScratch) learn(short []Contact, peers []transport.PeerID, self transport.PeerID) []Contact {
	for _, peer := range peers {
		if peer == self || sc.known[peer] {
			continue
		}
		peer = transport.PeerID(strings.Clone(string(peer)))
		sc.known[peer] = true
		short = append(short, ContactFor(peer))
	}
	return short
}

// missing reports whether peer announced a set that is not in hand.
func (sc *lookupScratch) missing(peer transport.PeerID) bool {
	d := sc.held[peer]
	return d.Count > 0 && !slices.Contains(sc.seen, d)
}

// stamp picks the next RPCs' Have. Anchored — the set most responders
// announced (ties: the larger) is in hand — it is that set's digest, so
// they answer with theirs and only a diverged holder ships. Until then
// it digests all in hand, and only a wave's closest candidate may ship.
func (sc *lookupScratch) stamp() (have setDigest, anchored bool) {
	votes := 0
	for _, d := range sc.held {
		v := 0
		for _, h := range sc.held {
			if h == d {
				v++
			}
		}
		if v > votes || v == votes && (d.Count > have.Count || d.Count == have.Count && d.Sum > have.Sum) {
			have, votes = d, v
		}
	}
	if slices.Contains(sc.seen, have) {
		return have, true
	}
	return sc.have, false
}

var lookupScratchPool = sync.Pool{New: func() any {
	return &lookupScratch{
		state: make(map[transport.PeerID]peerState),
		known: make(map[transport.PeerID]bool),
		held:  make(map[transport.PeerID]setDigest),
	}
}}

// valueQuery makes a lookup carry FIND_VALUE semantics: holders of
// the target key evaluate the community/filter server-side and return
// matching records alongside their closest contacts.
type valueQuery struct {
	communityID string
	filter      string
	// match is filter, parsed (nil matches everything).
	match query.Filter
	limit int
	// stopOnValue applies Kademlia's value-terminating FIND_VALUE: stop
	// once a Complete (cached, full-result-set) reply's records are in
	// hand, instead of converging on the full K closest. This lets cached
	// copies absorb a flash crowd — a querier that hits a cache on the
	// lookup path never reaches the key's k holders. It takes the
	// Complete flag: a record set, unlike Kademlia's atomic values, can
	// be partially replicated, so stopping on any records loses recall.
	stopOnValue bool
}

// lookupOutcome is the result of one iterative lookup.
type lookupOutcome struct {
	// contacts are the responsive nodes closest to the target, by
	// distance, at most K; gathered only for a lookup asked for them.
	contacts []Contact
	// results are the FIND_VALUE records — this node's own held slice
	// included — as results, deduped by (DocID, Provider) and sorted:
	// the slice they were merged into, the caller's to filter and cut in
	// place. Their strings share the reply frames' copies.
	results []p2p.Result
	// rounds is how many α-wide RPC waves the lookup took: its hop
	// count.
	rounds int
	// cacheTarget is the closest responded node that held no matching
	// records — Kademlia's caching-STORE recipient — valid only when
	// hasCacheTarget is set, which takes some other responder that did.
	cacheTarget    Contact
	hasCacheTarget bool
	// limited reports that the lookup stopped early because it had
	// collected limit records: the set may be a truncation of the full
	// result, so it must never be cached.
	limited bool
	// fromCache reports that a Complete cached set is in hand, so a
	// stopOnValue lookup may end.
	fromCache bool
}

// peerState tracks one shortlist entry through a lookup.
type peerState int

const (
	stateNew peerState = iota
	stateFailed
	stateResponded
	statePulled // responded, and asked once more for its set
)

// lookup runs the iterative Kademlia node/value lookup toward target.
// Each round queries the α closest unqueried candidates among the K
// best known, merges the contacts (and records) they return, and
// stops when the K closest known nodes have all been queried — the
// standard convergence rule, reaching the key's neighborhood in
// O(log n) rounds.
//
// On the synchronous simulated network every reply has already been
// handled when Send returns, so a "parallel" wave degenerates to α
// deterministic sequential RPCs; on TCP the α RPCs genuinely overlap
// and Await applies the RPC timeout. Candidates are always processed
// in sorted distance order, never map order, so two runs of one seed
// issue identical message sequences.
//
// A value lookup starts from this node's own held slice and ships the
// record set once: the package doc has the reply protocol. tctx, when
// valid, ties the lookup into a sampled trace: each wave (and batch of
// pulls) becomes one span, a child of the caller's, and every RPC frame
// it sends is stamped with and attributed to it. wantContacts asks for
// out.contacts, which only a caller that sends to the key's closest
// nodes reads.
func (n *Node) lookup(tctx trace.Context, target ID, vq *valueQuery, wantContacts bool) lookupOutcome {
	var out lookupOutcome
	ctr := n.ctr.Load()
	sc := lookupScratchPool.Get().(*lookupScratch)
	short := n.table.ClosestAppend(sc.short[:0], target, 0)
	state, known, held := sc.state, sc.known, sc.held
	defer func() {
		sc.short = short[:0]
		clear(state)
		clear(known)
		clear(held)
		sc.have, sc.seen = setDigest{}, sc.seen[:0]
		sc.findValue = findValuePayload{}
		lookupScratchPool.Put(sc)
	}()
	for _, c := range short {
		known[c.Peer] = true
	}
	if vq != nil {
		whole := *vq // the own slice is taken whole: a limit cuts what the lookup ends with
		whole.limit = 0
		own, _, _ := n.records.get(&sc.own, target, n.Clock().Now(), &whole, setDigest{})
		out.results = sc.merge(out.results, own)
		clearRecords(&sc.own)
	}
	// lost: an announced set never arrived.
	lost := false

	// wave sends one α-wide batch of RPCs as one trace span — to the
	// closest unqueried candidates among the K best known or, with pull,
	// to responders whose announced set is not in hand (each asked once)
	// — folds the replies in and reports whether any went out.
	wave := func(pull bool) bool {
		op, from, to := "wave", stateNew, stateResponded
		if pull {
			op, from, to = "pull", stateResponded, statePulled
		}
		wsp := n.Tracer().Start(tctx, op)
		have, anchored := sc.stamp()
		fail := func(peer transport.PeerID, err error) {
			state[peer] = stateFailed
			n.NodeMetrics().CountError(errs.Wrap("dht.lookup_rpc", err, "dht: lookup rpc failed"))
			if pull { // no early exit, no caching, on the strength of a lost set
				out.fromCache, lost = false, true
			}
		}
		rpcs := sc.wave[:0]
		viable := 0
		for _, c := range short {
			if state[c.Peer] == stateFailed {
				continue
			}
			if viable++; viable > n.cfg.K && !pull {
				break
			}
			if state[c.Peer] != from || pull && !sc.missing(c.Peer) {
				continue
			}
			ctr.contacted.Inc()
			x, err := n.startLookupRPC(sc, c.Peer, target, vq, have, !pull && !anchored && len(rpcs) > 0, &wsp)
			if err != nil {
				fail(c.Peer, err)
				if transport.IsPeerDead(err) {
					n.table.Remove(c.Peer)
				}
				continue
			}
			state[c.Peer] = to // provisional; demoted on timeout
			rpcs = append(rpcs, lookupRPC{contact: c, x: x})
			if len(rpcs) == n.cfg.Alpha || pull && !anchored {
				break // unanchored, one set at a time: it may settle the rest
			}
		}
		sc.wave = rpcs
		if len(rpcs) == 0 {
			return false // span dropped unrecorded: an empty wave is not a round
		}
		if !pull {
			out.rounds++
		}
		before := len(short)
		for _, r := range rpcs {
			got, err := n.Await(r.x, n.cfg.RPCTimeout)
			if err != nil {
				fail(r.contact.Peer, err)
				continue
			}
			// The handler resolved the reply as a typed frame: a
			// find-value reply, or a find-node reply (peers only).
			var peers []transport.PeerID
			switch reply := got.(type) {
			case *findValueReplyPayload:
				peers = reply.Peers
				out.fromCache = out.fromCache || reply.Complete
				if reply.Digest.Count > 0 {
					held[r.contact.Peer] = reply.Digest
					if len(reply.Records) == 0 {
						ctr.digestReplies.Inc()
					}
				}
				if anchored && len(reply.Records) > 0 {
					ctr.mismatches.Inc() // it differs from the set most announced
				}
				out.results = sc.merge(out.results, reply.Records)
			case *findNodeReplyPayload:
				peers = reply.Peers
			default:
				state[r.contact.Peer] = stateFailed
				continue
			}
			short = sc.learn(short, peers, n.PeerID())
		}
		if len(short) > before {
			sortByDistance(short, target)
		}
		wsp.Finish()
		return true
	}

	// full: a limit query has its fill, more rounds would only cost messages.
	full := func() bool { return vq != nil && vq.limit > 0 && len(out.results) >= vq.limit }
	for wave(false) {
		if vq == nil {
			continue
		}
		// An early exit acts on records in hand, never on a digest's
		// promise: a limit query, or one that saw a Complete cached reply,
		// fetches what was announced first (a lost pull clears fromCache).
		for (vq.limit > 0 || vq.stopOnValue && out.fromCache) && !full() && wave(true) {
		}
		if full() {
			ctr.shortcircuits.Inc()
			break
		}
		// Value termination (Kademlia FIND_VALUE): the flash crowd stops
		// at the path copy instead of converging on the holders.
		if vq.stopOnValue && out.fromCache {
			break
		}
	}
	// Settle the digests: a holder whose set is none of those in hand (it
	// diverged, or was asked DigestOnly) ships it now: recall stays exact.
	for vq != nil && !full() && wave(true) {
	}
	out.limited = full() // the set may be a truncation: uncacheable
	if wantContacts {
		out.contacts = make([]Contact, 0, n.cfg.K)
		for _, c := range short {
			if state[c.Peer] >= stateResponded && len(out.contacts) < n.cfg.K {
				out.contacts = append(out.contacts, c)
			}
		}
	}
	// The caching-STORE recipient: the closest observed node that
	// answered but held no records. In a converged lookup the top-K
	// contacts are all holders, so the scan covers the whole responded
	// shortlist — typically it is a node just outside the key's replica
	// neighborhood, where a cache intercepts the next querier's waves. No
	// holder found, or an announced set lost (what is in hand may be
	// incomplete): no recipient.
	for _, c := range short {
		if !lost && len(held) > 0 && state[c.Peer] >= stateResponded && held[c.Peer].Count == 0 {
			out.cacheTarget = c
			out.hasCacheTarget = true
			break
		}
	}
	ctr.lookups.Inc()
	ctr.rounds.Add(int64(out.rounds))
	return out
}

// startLookupRPC issues the wave's RPC — FIND_VALUE when a value query
// rides along (stamped with the digest in hand), FIND_NODE otherwise —
// sent on behalf of the wave span, from the scratch's request frames.
func (n *Node) startLookupRPC(sc *lookupScratch, to transport.PeerID, target ID, vq *valueQuery, have setDigest, digestOnly bool, wsp *trace.ActiveSpan) (p2p.Exchange, error) {
	if vq == nil {
		sc.findNode = findNodePayload{Target: target}
		return n.StartCall(to, MsgFindNode, &sc.findNode, wsp)
	}
	sc.findValue = findValuePayload{
		Key:         target,
		CommunityID: vq.communityID,
		Filter:      vq.filter,
		Limit:       vq.limit,
		Have:        have,
		DigestOnly:  digestOnly,
	}
	return n.StartCall(to, MsgFindValue, &sc.findValue, wsp)
}
