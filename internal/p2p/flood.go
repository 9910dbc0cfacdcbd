package p2p

import (
	"slices"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// floodRouter is the Gnutella flood machinery GnutellaNode and
// SuperPeer both embed: TTL-bounded query flooding over a neighbor
// set, duplicate suppression by GUID, and reverse-path routing of
// query hits.
//
// A flooded frame costs what its role requires. query and query-hit
// lead with their GUID, and the router reads only that
// (codec.PeekUint) until it knows what the frame is to this node:
// a duplicate query is dropped and a hit on its way elsewhere is
// forwarded byte for byte, neither decoded nor validated past the GUID;
// a first-arrival query is decoded in full before its GUID enters the
// seen table; a hit's results are decoded only by the node that
// originated the search, by that search's collector
// (hitCollector.addHit), which is also where a hit with a corrupt body
// is finally dropped.
type floodRouter struct {
	Peer
	guids *guidSource
	// answer writes this node's own matches for a remote query into the
	// query-hit (the query frame carries no limit, so neither does the
	// answer).
	answer answerer

	mu sync.RWMutex
	// neighbors is a copy-on-write sorted slice: floods iterate it
	// directly with no per-search sort or snapshot allocation, and
	// membership changes replace the slice wholesale (they are rare —
	// overlay wiring and churn — while floods are the hot path).
	neighbors []transport.PeerID
	seen      seenTable
	// collect gathers hits for queries this node originated.
	collect map[uint64]*hitCollector
}

// init attaches the router; shared and proto are the embedding node's,
// as in InitPeer.
func (r *floodRouter) init(ep transport.Endpoint, shared *index.Store, proto string, answer answerer) {
	r.InitPeer(ep, shared, proto)
	r.guids = newGUIDSource(ep.ID())
	r.answer = answer
	r.collect = make(map[uint64]*hitCollector)
}

// AddNeighbor links this node to a peer in the overlay (one direction;
// callers typically link both ways).
func (r *floodRouter) AddNeighbor(peer transport.PeerID) {
	if peer == r.PeerID() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.neighbors = peerSliceAdd(r.neighbors, peer)
}

// RemoveNeighbor unlinks a peer.
func (r *floodRouter) RemoveNeighbor(peer transport.PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.neighbors = peerSliceRemove(r.neighbors, peer)
}

// Neighbors returns a copy of the current neighbor set, sorted.
func (r *floodRouter) Neighbors() []transport.PeerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.neighbors)
}

// seenGeneration is how long the seen table fills one generation before
// it starts the next. An entry therefore lives between one and two
// generations — minutes, where a flood and its hits are done within a
// search timeout (DefaultTimeout, seconds).
const seenGeneration = 10 * time.Minute

// seenGenerationCap bounds one generation's GUIDs, so a peer that sends
// fresh GUIDs as fast as it can makes a node hold at most twice this
// many, not everything of the last ten minutes. Honest traffic stays far
// below it: the most one generation reaches in any shipped scenario (E3,
// E5, E8, E12–E16 at their default scales, the golden traces) is 470 (a
// FastTrack super-peer in E12), and the ruler's 15 s tcp-gnutella-flood
// window 8 692. A full generation still outlives a search timeout
// unless GUIDs arrive at thousands per second.
const seenGenerationCap = 1 << 15

// seenTable maps a flooded GUID to the neighbor it first arrived from,
// for duplicate suppression and reverse-path routing. It keeps two
// generations: inserts go to the current one, lookups consult both, and
// once the current one is seenGeneration old or holds seenGenerationCap
// GUIDs it becomes the previous one and the previous one is dropped — so
// a long-lived node remembers the GUIDs of its last ten to twenty
// minutes at most, not of its lifetime. The zero value is an empty
// table; the owner's lock guards it.
type seenTable struct {
	cur, prev map[uint64]transport.PeerID
	started   time.Time // when cur took its first insert
}

func (t *seenTable) lookup(guid uint64) (transport.PeerID, bool) {
	if from, ok := t.cur[guid]; ok {
		return from, true
	}
	from, ok := t.prev[guid]
	return from, ok
}

// insert records guid as first seen from from at now (a reading of the
// node's clock).
func (t *seenTable) insert(guid uint64, from transport.PeerID, now time.Time) {
	if t.cur == nil || len(t.cur) >= seenGenerationCap || now.Sub(t.started) >= seenGeneration {
		t.prev, t.cur, t.started = t.cur, make(map[uint64]transport.PeerID), now
	}
	t.cur[guid] = from
}

// markSeen records a flooded GUID's reverse path unless one is already
// known, and reports whether this was its first arrival, together with
// the neighbor set to forward to.
func (r *floodRouter) markSeen(guid uint64, from transport.PeerID) (neighbors []transport.PeerID, first bool) {
	now := r.clk.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.seen.lookup(guid); dup {
		return nil, false
	}
	r.seen.insert(guid, from, now)
	return r.neighbors, true
}

// hitCollector gathers the results of a search this node originated:
// the caller's own, then each hit frame's, decoded into a slice of that
// frame's size (addHit). snapshot joins them into one slice of the
// final size, or hands over the only one there is without a copy.
type hitCollector struct {
	mu     sync.Mutex
	frames [][]Result
	n      int           // results across frames
	done   chan struct{} // closed when the limit is reached or the results are taken
	limit  int
	closed bool
}

// newHitCollector starts a collection for limit results (0 =
// unlimited) from local, the searcher's own matches, of which there are
// at most limit; the collection takes local over.
func newHitCollector(limit int, local []Result) *hitCollector {
	h := &hitCollector{done: make(chan struct{}), limit: limit}
	h.add(local)
	return h
}

// add appends a frame's results, closing the collection once they meet
// the limit (caller holds mu, or owns h).
func (h *hitCollector) add(rs []Result) {
	if len(rs) > 0 {
		h.frames = append(h.frames, rs)
		h.n += len(rs)
	}
	if h.limit > 0 && h.n >= h.limit {
		h.close()
	}
}

// close closes done (caller holds mu, or owns h).
func (h *hitCollector) close() {
	if !h.closed {
		h.closed = true
		close(h.done)
	}
}

// addHit decodes a query-hit frame's results, as many as the limit
// still admits. A frame is admitted whole or not at all: one whose body
// does not decode adds nothing, even when its prefix would have met the
// limit, and addHit returns the decode error. Once the limit is met or
// the results are taken, a frame is dropped unread.
func (h *hitCollector) addHit(payload []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	r := codec.NewReader(payload)
	r.Uvarint() // the GUID the router peeked
	rs := readResults(r, max(h.limit-h.n, 0))
	if err := r.Err(); err != nil {
		return err
	}
	h.add(rs)
	return nil
}

// snapshot hands the collected results — never more than the limit —
// to the caller and closes the collection: the slice is the caller's,
// and a hit that arrives later is dropped.
func (h *hitCollector) snapshot() []Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Result
	switch len(h.frames) {
	case 0:
	case 1:
		out = h.frames[0]
	default:
		out = make([]Result, 0, h.n)
		for _, rs := range h.frames {
			out = append(out, rs...)
		}
	}
	h.frames = nil
	h.close()
	return out
}

// originate floods a fresh query to every neighbor. It returns the
// query's GUID and the collector that gathers the hits routed back,
// seeded with local, the caller's own matches, which it takes over; the
// caller reads the collector (on an asynchronous transport, after
// waiting on it) and then calls release. The sends go out on behalf of
// sp, the caller's span.
func (r *floodRouter) originate(communityID string, f query.Filter, ttl, limit int, local []Result, sp *trace.ActiveSpan) (uint64, *hitCollector, error) {
	guid := r.guids.next()
	col := newHitCollector(limit, local)
	now := r.clk.Now()
	if r.Closed() {
		return 0, nil, ErrClosed
	}
	r.mu.Lock()
	r.collect[guid] = col
	r.seen.insert(guid, r.PeerID(), now) // suppress loops back to the origin
	neighbors := r.neighbors
	r.mu.Unlock()

	payload := codec.Borrow(&queryPayload{
		GUID:        guid,
		Origin:      r.PeerID(),
		CommunityID: communityID,
		Filter:      f.String(),
		TTL:         ttl,
	})
	for _, n := range neighbors {
		// Unreachable neighbors are skipped, like UDP loss in the
		// original protocol.
		_ = r.SendPayload(n, MsgQuery, *payload, sp)
	}
	codec.Release(payload)
	return guid, col, nil
}

// release ends collection for a query this node originated; hits that
// still arrive for it are dropped.
func (r *floodRouter) release(guid uint64) {
	r.mu.Lock()
	delete(r.collect, guid)
	r.mu.Unlock()
}

// handleQuery serves one arrival of a flooded query: answer it from
// the local index, route the hit back, and forward the flood while TTL
// remains — once per GUID.
func (r *floodRouter) handleQuery(msg transport.Message) {
	guid, err := codec.PeekUint(msg.Payload)
	if err != nil {
		return
	}
	r.mu.RLock()
	_, dup := r.seen.lookup(guid)
	r.mu.RUnlock()
	if dup {
		// Already served and forwarded: most arrivals in a flood end
		// here, having cost a varint read and a map lookup.
		r.NodeMetrics().Duplicates.Inc()
		sp := r.StartSpan(msg, "query.dup")
		sp.Finish()
		return
	}
	// A first arrival is read in full before its GUID enters the seen
	// table, so a frame that is not a query never claims a reverse path.
	// It is read in place: the relay keeps nothing of the payload past
	// this handler, and copies only the community it answers for and
	// the filter it parses.
	var q queryView
	if err := q.DecodeBinary(msg.Payload); err != nil {
		return
	}
	communityID := string(q.community)
	sp := r.StartSpan(msg, "query")
	sp.SetCommunity(communityID)
	defer sp.Finish()
	neighbors, first := r.markSeen(guid, msg.From)
	if !first {
		r.NodeMetrics().Duplicates.Inc()
		sp.SetOp("query.dup") // another arrival of this GUID won the race
		return
	}

	f, err := query.Parse(string(q.filter))
	if err != nil {
		return // malformed query: drop, per protocol robustness rules
	}
	hops := q.Hops + 1
	hit := codec.Scratch()
	var n int
	*hit, n = appendHit(*hit, q.GUID, r.answer, communityID, f, 0, hops)
	if n > 0 {
		// Route the hit back toward the origin along the reverse path; a
		// hop that is gone loses it, like the original's UDP.
		_ = r.SendPayload(msg.From, MsgQueryHit, *hit, &sp)
	}
	codec.Release(hit)
	// Forward the flood while TTL remains.
	if q.TTL <= 1 {
		return
	}
	q.TTL--
	q.Hops = hops
	payload := codec.Borrow(&q)
	for _, n := range neighbors {
		if n == msg.From {
			continue
		}
		_ = r.SendPayload(n, MsgQuery, *payload, &sp)
	}
	codec.Release(payload)
}

// handleQueryHit collects a hit for a query this node originated, or
// relays it one hop back along the query's reverse path.
func (r *floodRouter) handleQueryHit(msg transport.Message) {
	guid, err := codec.PeekUint(msg.Payload)
	if err != nil {
		return
	}
	r.mu.RLock()
	col := r.collect[guid]
	back, seen := r.seen.lookup(guid)
	r.mu.RUnlock()
	if col != nil {
		if err := col.addHit(msg.Payload); err != nil {
			return // corrupt body: dropped here, the collection stands
		}
		sp := r.StartSpan(msg, "hit")
		sp.Finish()
		return
	}
	if !seen || back == r.PeerID() {
		return // unknown or stale query: drop the hit
	}
	sp := r.StartSpan(msg, "hit.relay")
	_ = r.SendPayload(back, MsgQueryHit, msg.Payload, &sp)
	sp.Finish()
}
