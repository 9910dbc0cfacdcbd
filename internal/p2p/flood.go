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
// SuperPeer both embed: TTL-bounded flooding over a neighbor set,
// duplicate suppression by GUID, and reverse-path routing of the
// answers. Two frames flood — a query, answered by a query-hit, and a
// Gnutella ping, answered by a pong — and both take the one path.
//
// A flooded frame costs what its role requires. Every flooded frame and
// answer leads with its GUID, and the router reads only that
// (codec.PeekUint) until it knows what the frame is to this node:
// a duplicate is dropped and an answer on its way elsewhere is
// forwarded byte for byte, neither decoded nor validated past the GUID;
// a first arrival is decoded in full before its GUID enters the
// seen table; an answer is decoded only by the node that originated
// the flood, by its collector (hitCollector.addHit), which is also
// where an answer with a corrupt body is finally dropped.
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
	// collect gathers the answers to floods this node originated, by
	// GUID, until their originator has taken them (collected).
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

// hitCollector gathers the answers to a flood this node originated:
// the query-hits to a search, after the searcher's own results, or the
// pongs to a ping. Each frame is decoded into a slice of its size
// (addHit); snapshot joins them into one slice of the final size, or
// hands over the only one there is without a copy. The collection is
// the exchange x of the node's pending table, which the router resolves
// once the limit is met, so its originator waits in Await.
type hitCollector struct {
	mu     sync.Mutex
	frames [][]Result
	n      int // results across frames
	limit  int
	closed bool // the limit is met or the results are taken

	guid   uint64
	answer string // the frame type that answers the flood
	x      Exchange
}

// newHitCollector starts a collection for limit results (0 =
// unlimited) from local, the searcher's own matches, of which there are
// at most limit; the collection takes local over.
func newHitCollector(limit int, local []Result) *hitCollector {
	h := &hitCollector{limit: limit}
	h.add(local)
	return h
}

// add appends a frame's results and reports whether they met the
// limit, which closes the collection (caller holds mu, or owns h).
func (h *hitCollector) add(rs []Result) bool {
	if len(rs) > 0 {
		h.frames = append(h.frames, rs)
		h.n += len(rs)
	}
	h.closed = h.limit > 0 && h.n >= h.limit
	return h.closed
}

// addHit decodes an answer frame's results, as many as the limit still
// admits, and reports whether they met it. A query-hit holds a result
// set; a pong, in a collection of pongs, holds one peer, collected as a
// result that peer provides. A frame is admitted whole or not at all:
// one whose body does not decode adds nothing, even when its prefix
// would have met the limit, and addHit returns the decode error. Once
// the limit is met or the results are taken, a frame is dropped unread.
func (h *hitCollector) addHit(payload []byte) (met bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false, nil
	}
	if h.answer == MsgPong {
		var pong pongPayload
		if err := pong.DecodeBinary(payload); err != nil {
			return false, err
		}
		return h.add([]Result{{Provider: pong.Peer, Hops: pong.Hops}}), nil
	}
	r := codec.NewReader(payload)
	r.Uvarint() // the GUID the router peeked
	rs := readResults(r, max(h.limit-h.n, 0))
	if err := r.Err(); err != nil {
		return false, err
	}
	return h.add(rs), nil
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
	h.closed = true
	return out
}

// originate floods a fresh query to every neighbor; see flood.
func (r *floodRouter) originate(communityID string, f query.Filter, ttl, limit int, local []Result, sp *trace.ActiveSpan) (*hitCollector, error) {
	guid := r.guids.next()
	q := &queryPayload{GUID: guid, Origin: r.PeerID(), CommunityID: communityID, Filter: f.String(), TTL: ttl}
	return r.flood(guid, MsgQuery, q, limit, local, sp)
}

// flood sends frame, a fresh query or ping that carries guid, to every
// neighbor as msgType, on behalf of sp, the caller's span. It returns
// the collector of the answers routed back, seeded with local, the
// caller's own matches, which it takes over. The collection's exchange
// is resolved once the answers meet limit — at once when local does, or
// when no send went out — and the caller ends its wait in collected.
func (r *floodRouter) flood(guid uint64, msgType string, frame codec.Frame, limit int, local []Result, sp *trace.ActiveSpan) (*hitCollector, error) {
	if r.Closed() {
		return nil, ErrClosed
	}
	col := newHitCollector(limit, local)
	met := col.closed
	id, slot := r.pending.create()
	col.guid, col.answer, col.x = guid, MsgQueryHit, Exchange{id, slot}
	if msgType == MsgPing {
		col.answer = MsgPong
	}
	now := r.clk.Now()
	r.mu.Lock()
	r.collect[guid] = col
	r.seen.insert(guid, r.PeerID(), now) // suppress loops back to the origin
	neighbors := r.neighbors
	r.mu.Unlock()

	payload := codec.Borrow(frame)
	sent := 0
	for _, n := range neighbors {
		// Unreachable neighbors are skipped, like UDP loss in the
		// original protocol.
		if r.SendPayload(n, msgType, *payload, sp) == nil {
			sent++
		}
	}
	codec.Release(payload)
	if met || sent == 0 {
		r.Resolve(id, nil) // nothing left to wait for
	}
	return col, nil
}

// collected waits in Await, at most timeout, for the collection's limit
// and hands over its answers; one that arrives later finds no collector
// and is dropped.
func (r *floodRouter) collected(col *hitCollector, timeout time.Duration) []Result {
	r.Await(col.x, timeout) // a timeout ends the wait; the answers so far stand
	r.mu.Lock()
	delete(r.collect, col.guid)
	r.mu.Unlock()
	return col.snapshot()
}

// handleFlood serves one arrival of a flooded frame, a query or a ping:
// answer it along the reverse path — with this node's matches, or a
// pong — and forward the flood while TTL remains, once per GUID.
func (r *floodRouter) handleFlood(msg transport.Message) {
	guid, err := codec.PeekUint(msg.Payload)
	if err != nil {
		return
	}
	ping := msg.Type == MsgPing
	op, dupOp := "query", "query.dup"
	if ping {
		op, dupOp = "ping", "ping.dup"
	}
	r.mu.RLock()
	_, dup := r.seen.lookup(guid)
	r.mu.RUnlock()
	if dup {
		// Already served and forwarded: most arrivals in a flood end
		// here, having cost a varint read and a map lookup.
		r.NodeMetrics().Duplicates.Inc()
		sp := r.StartSpan(msg, dupOp)
		sp.Finish()
		return
	}
	// A first arrival is read in full before its GUID enters the seen
	// table, so a frame that is not what its type says never claims a
	// reverse path. It is read in place: the relay keeps nothing of the
	// payload past this handler, and copies only the community it
	// answers for and the filter it parses.
	q := queryView{ping: ping}
	if err := q.DecodeBinary(msg.Payload); err != nil {
		return
	}
	communityID := string(q.community)
	sp := r.StartSpan(msg, op)
	sp.SetCommunity(communityID)
	defer sp.Finish()
	neighbors, first := r.markSeen(guid, msg.From)
	if !first {
		r.NodeMetrics().Duplicates.Inc()
		sp.SetOp(dupOp) // another arrival of this GUID won the race
		return
	}

	var f query.Filter
	if !ping {
		if f, err = query.Parse(string(q.filter)); err != nil {
			return // malformed query: drop, per protocol robustness rules
		}
	}
	hops := q.Hops + 1
	answer := codec.Scratch()
	answerType, n := MsgPong, 1
	if ping {
		*answer = (&pongPayload{GUID: guid, Peer: r.PeerID(), Hops: hops}).AppendBinary(*answer)
	} else {
		answerType = MsgQueryHit
		*answer, n = appendHit(*answer, guid, r.answer, communityID, f, 0, hops)
	}
	if n > 0 {
		// Route the answer back toward the origin along the reverse
		// path; a hop that is gone loses it, like the original's UDP.
		_ = r.SendPayload(msg.From, answerType, *answer, &sp)
	}
	codec.Release(answer)
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
		_ = r.SendPayload(n, msg.Type, *payload, &sp)
	}
	codec.Release(payload)
}

// handleHit collects an answer — a query-hit or a pong — to a flood
// this node originated, resolving the collection's exchange once it
// meets its limit, or relays it one hop back along the flood's reverse
// path.
func (r *floodRouter) handleHit(msg transport.Message) {
	guid, err := codec.PeekUint(msg.Payload)
	if err != nil {
		return
	}
	r.mu.RLock()
	col := r.collect[guid]
	back, seen := r.seen.lookup(guid)
	r.mu.RUnlock()
	if col != nil && col.answer == msg.Type {
		met, err := col.addHit(msg.Payload)
		if err != nil {
			return // corrupt body: dropped here, the collection stands
		}
		if met {
			r.Resolve(col.x.id, nil)
		}
		sp := r.StartSpan(msg, "hit")
		sp.Finish()
		return
	}
	if !seen || back == r.PeerID() {
		return // unknown or stale flood, or the wrong answer to ours: drop it
	}
	sp := r.StartSpan(msg, "hit.relay")
	_ = r.SendPayload(back, msg.Type, msg.Payload, &sp)
	sp.Finish()
}
