package dht

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// storeChunk bounds records per STORE frame, like the register-batch
// chunking, so one bulk publication cannot exceed a transport's frame
// limit.
const storeChunk = 512

// errStoreRefused counts, in the node's error family, each STORE frame
// that carried records the holder refused: filed outside their
// community's key, or (unless the STORE is a caching one) in another
// provider's name. No honest peer sends one.
var errStoreRefused = errs.New("dht.store_refused", "dht: STORE records refused")

// Node is one DHT peer: a p2p.Network whose Publish/Search/Unpublish
// route through the keyspace instead of a server or a flood. The
// local index.Store holds the node's own shared objects (as on every
// protocol); the record store holds the slices of the distributed
// index this node is a closest-k holder of.
type Node struct {
	p2p.Peer
	cfg     Config
	self    ID
	table   *Table
	records *recordStore

	// annMu guards lastAnnounce: per-community-key memory of the last
	// announce (holder set and instant), which tells Refresh whom to ask
	// about a key and lets it skip republishing keys whose replicas are
	// still where they were put.
	annMu        sync.Mutex
	lastAnnounce map[ID]announceState

	// ctr holds the dht.* telemetry handles, swapped whole by SetMetrics
	// like the embedded runtime's own.
	ctr atomic.Pointer[counters]
}

// counters are the node's dht.* lookup and replication counters.
type counters struct {
	lookups, rounds, contacted, fanout, shortcircuits, cacheStores,
	repubSkipped, digestReplies, mismatches *metrics.Counter
}

// announceState remembers one key's last replication: who got the
// records, closest to the key first, and when.
type announceState struct {
	holders []transport.PeerID
	at      time.Time
}

var _ p2p.Network = (*Node)(nil)

// NewNode attaches a DHT node to the network. store holds the peer's
// shared objects; cfg's zero value selects the package defaults.
// Topology comes from Bootstrap (the simulator wires it; over TCP a
// bootstrap list plays the same role).
func NewNode(ep transport.Endpoint, store *index.Store, cfg Config) *Node {
	cfg = cfg.withDefaults()
	self := NodeIDFor(ep.ID())
	n := &Node{
		cfg:          cfg,
		self:         self,
		table:        NewTable(self, cfg.K),
		records:      newRecordStore(cfg.RecordTTL, cfg.MaxRecordsPerKey),
		lastAnnounce: make(map[ID]announceState),
	}
	n.InitPeer(ep, store, "dht")
	n.SetMetrics(metrics.Discard())
	ep.SetHandler(n.handle)
	return n
}

// SetMetrics points the node's telemetry at reg: the protocol-labeled
// p2p.* families (label "dht") of the embedded runtime, plus the dht.*
// lookup and replication counters and the record store's. Metrics are
// discarded until then.
func (n *Node) SetMetrics(reg *metrics.Registry) {
	n.Peer.SetMetrics(reg)
	n.ctr.Store(&counters{
		lookups:       reg.Counter("dht.lookups"),
		rounds:        reg.Counter("dht.lookup_rounds"),
		contacted:     reg.Counter("dht.peers_contacted"),
		fanout:        reg.Counter("dht.store_fanout"),
		shortcircuits: reg.Counter("dht.lookup_shortcircuits"),
		cacheStores:   reg.Counter("dht.cache_stores"),
		repubSkipped:  reg.Counter("dht.republishes_skipped"),
		digestReplies: reg.Counter("dht.digest_replies"),
		mismatches:    reg.Counter("dht.digest_mismatches"),
	})
	n.records.setCounters(
		reg.Counter("dht.records_expired"),
		reg.Counter("dht.records_evicted"),
		reg.Counter("dht.cache_hits"),
	)
}

// TableLen returns the number of live routing-table contacts.
func (n *Node) TableLen() int { return n.table.Len() }

// RecordCount returns how many unexpired records this node holds for
// the keyspace.
func (n *Node) RecordCount() int { return n.records.len(n.Clock().Now()) }

// Holds reports whether this node holds an unexpired replica of
// provider's record of doc under the community's key.
func (n *Node) Holds(communityID string, doc index.DocID, provider transport.PeerID) bool {
	return n.records.holds(KeyForCommunity(communityID), doc, provider, n.Clock().Now())
}

// Bootstrap seeds the routing table with the given peers and runs the
// Kademlia join: an iterative lookup of the node's own ID, which
// populates the table with the neighborhood and inserts this node
// into the tables of everyone contacted, followed by a refresh of
// every bucket farther out than the closest neighbor (a lookup of a
// deterministic ID in each bucket's range, per Kademlia §2.3).
//
// The bucket refreshes matter beyond coverage: they fill the far
// buckets with ordinary peers from each distance range *before* any
// key sees traffic. A full bucket never displaces a live contact, so
// the nodes closest to some later-popular key stay out of most
// routing tables (parked in replacement caches) exactly as in a
// long-lived deployment — without this step every table converged on
// the first hot key's holders and lookups collapsed to one hop.
func (n *Node) Bootstrap(peers ...transport.PeerID) {
	for _, p := range peers {
		if p != n.PeerID() {
			n.table.Observe(p)
		}
	}
	n.lookup(trace.Context{}, n.self, nil, false)
	if cs := n.table.Closest(n.self, 1); len(cs) > 0 {
		nearest := BucketIndex(n.self, cs[0].ID)
		for b := nearest + 1; b < IDBits; b++ {
			n.lookup(trace.Context{}, RefreshTarget(n.self, b), nil, false)
		}
	}
}

// Publish implements p2p.Network: store locally, then replicate the
// metadata record onto the k nodes closest to the community key (the
// distributed index slice).
func (n *Node) Publish(doc *index.Document) error {
	es := []*index.Entry{index.NewEntry(doc)}
	if err := n.Shared().PutEntries(es); err != nil {
		return err
	}
	n.NodeMetrics().Publishes.Inc()
	sp := n.Tracer().Root("publish")
	sp.SetCommunity(doc.CommunityID)
	defer sp.Finish()
	return n.replicate(sp.Context(), es, n.storeRecords)
}

// PublishBatch implements p2p.Network: one local store batch, then
// one community-key lookup per distinct community (not per document)
// with the records chunked over STORE frames.
func (n *Node) PublishBatch(docs []*index.Document) error {
	if len(docs) == 0 {
		return nil
	}
	es := index.NewEntries(docs)
	if err := n.Shared().PutEntries(es); err != nil {
		return err
	}
	n.NodeMetrics().Publishes.Add(int64(len(docs)))
	sp := n.Tracer().Root("publish")
	defer sp.Finish()
	return n.replicate(sp.Context(), es, n.storeRecords)
}

// replicate hands put (storeRecords on publish, reannounceKey on
// refresh) the records of the stored entries es, one batch per
// community key. STOREs are fire-and-forget: the next Refresh repairs a
// lost or refused replica, like Kademlia republish.
func (n *Node) replicate(tctx trace.Context, es []*index.Entry, put func(trace.Context, ID, []p2p.Result)) error {
	if n.Closed() {
		return p2p.ErrClosed
	}
	byComm := make(map[string][]p2p.Result)
	for _, rec := range recordsFor(es, n.PeerID()) {
		byComm[rec.CommunityID] = append(byComm[rec.CommunityID], rec)
	}
	comms := make([]string, 0, len(byComm))
	for c := range byComm {
		comms = append(comms, c)
	}
	sort.Strings(comms)
	for _, c := range comms {
		put(tctx, KeyForCommunity(c), byComm[c])
	}
	return nil
}

// recordsFor extracts the replicated metadata of stored entries. Each
// record shares its entry's strings and attribute set (p2p.ResultOf).
// When this node is one of a key's holders it keeps the batch as it is:
// its own records, which each republish replaces together.
func recordsFor(es []*index.Entry, provider transport.PeerID) []p2p.Result {
	out := make([]p2p.Result, len(es))
	for i, e := range es {
		out[i] = p2p.ResultOf(e, provider)
	}
	return out
}

// storeRecords looks up the key's closest nodes and replicates recs
// onto them.
func (n *Node) storeRecords(tctx trace.Context, key ID, recs []p2p.Result) {
	out := n.lookup(tctx, key, nil, true)
	n.storeToTargets(tctx, key, recs, out.contacts)
}

// storeToTargets replicates recs onto targets (a key's closest nodes,
// already looked up). The node keeps a local replica too when it
// belongs to the key's neighborhood (fewer than k known holders, or
// self closer than the k-th) — slight over-replication beats a
// coverage hole — and remembers the targets for adaptive refresh.
func (n *Node) storeToTargets(tctx trace.Context, key ID, recs []p2p.Result, targets []Contact) {
	if len(targets) < n.cfg.K || CompareDistance(n.self, targets[len(targets)-1].ID, key) < 0 {
		n.records.put(key, recs, n.Clock().Now())
	}
	st := announceState{holders: appendContactPeers(make([]transport.PeerID, 0, len(targets)), targets), at: n.Clock().Now()}
	n.annMu.Lock()
	n.lastAnnounce[key] = st
	n.annMu.Unlock()
	// Chunk payloads are borrowed once, then replicated target-major so
	// each replica is one trace span covering all its chunk frames.
	payloads := make([]*[]byte, 0, (len(recs)+storeChunk-1)/storeChunk)
	for start := 0; start < len(recs); start += storeChunk {
		chunk := storePayload{Key: key, Records: recs[start:min(start+storeChunk, len(recs))]}
		payloads = append(payloads, codec.Borrow(&chunk))
	}
	fanout := n.ctr.Load().fanout
	for _, t := range targets {
		sp := n.Tracer().Start(tctx, "store")
		sp.SetPeer(string(t.Peer))
		for _, payload := range payloads {
			fanout.Inc()
			n.sendOrEvict(t.Peer, MsgStore, *payload, &sp)
		}
		sp.Finish()
	}
	for _, payload := range payloads {
		codec.Release(payload)
	}
}

// cacheStore replicates a complete, filter-tagged result set onto the
// closest observed non-holder: Kademlia's caching STORE. One target,
// halved TTL on the receiver, never republished. Unlike replica
// STOREs the set is never chunked: the receiver installs it
// atomically (completeness is the whole point of a cached set), so it
// must arrive as one frame.
func (n *Node) cacheStore(tctx trace.Context, key ID, target Contact, results []p2p.Result, filter string) {
	sp := n.Tracer().Start(tctx, "cache-store")
	sp.SetPeer(string(target.Peer))
	payload := codec.Borrow(&storePayload{Key: key, Records: results, Cached: true, Filter: filter})
	n.sendOrEvict(target.Peer, MsgStore, *payload, &sp)
	codec.Release(payload)
	n.ctr.Load().cacheStores.Inc()
	sp.Finish()
}

// sendOrEvict sends one fire-and-forget STORE frame on behalf of sp; a
// failure is marked on sp, and a peer the transport reports dead leaves
// the routing table.
func (n *Node) sendOrEvict(to transport.PeerID, msgType string, payload []byte, sp *trace.ActiveSpan) {
	if err := n.SendPayload(to, msgType, payload, sp); err != nil {
		sp.SetErr(err)
		if transport.IsPeerDead(err) {
			n.table.Remove(to)
		}
	}
}

// Unpublish implements p2p.Network: withdraw the record from its
// community key's neighborhood. Replicas on nodes that miss the unstore
// (loss, stale holders) age out at RecordTTL. A document this node does
// not share has no record of its to withdraw.
func (n *Node) Unpublish(id index.DocID) error {
	if n.Closed() {
		return p2p.ErrClosed
	}
	sp := n.Tracer().Root("unpublish")
	defer sp.Finish()
	doc, err := n.Shared().Get(id)
	if err != nil {
		return nil
	}
	n.Shared().Delete(id)
	key := KeyForCommunity(doc.CommunityID)
	out := n.lookup(sp.Context(), key, nil, true)
	n.records.remove(key, id, n.PeerID())
	payload := codec.Borrow(&unstorePayload{Key: key, DocID: id, Provider: n.PeerID()})
	for _, t := range out.contacts {
		usp := n.Tracer().Start(sp.Context(), "unstore")
		usp.SetPeer(string(t.Peer))
		// A holder that misses the unstore ages the record out at RecordTTL.
		_ = n.SendPayload(t.Peer, MsgUnstore, *payload, &usp)
		usp.Finish()
	}
	codec.Release(payload)
	return nil
}

// Search implements p2p.Network: one iterative FIND_VALUE toward the
// community key. Holders filter server-side, the lookup returns the
// replicas' union with this node's own held slice, deduped by (DocID,
// Provider) in canonical order; the caller re-verifies it, adds its
// own store's hits, and sets Hops to the lookup's round count. Unlike
// the centralized protocol there is no single point whose loss fails
// the query: under loss the lookup routes around unresponsive nodes
// and degrades gracefully instead of erroring.
func (n *Node) Search(communityID string, f query.Filter, opts p2p.SearchOptions) ([]p2p.Result, error) {
	if n.Closed() {
		n.NodeMetrics().CountError(p2p.ErrClosed)
		return nil, p2p.ErrClosed
	}
	if f == nil {
		f = query.MatchAll{}
	}
	start := n.Clock().Now()
	sp := n.Tracer().Start(opts.Trace, "search")
	sp.SetCommunity(communityID)
	defer sp.Finish()
	key := KeyForCommunity(communityID)
	filterStr := f.String()
	out := n.lookup(sp.Context(), key, &valueQuery{
		communityID: communityID,
		filter:      filterStr,
		match:       f,
		limit:       opts.Limit,
		stopOnValue: n.cfg.CacheRecords,
	}, false)
	// Holders filter server-side; re-check here so a skewed or
	// malicious holder cannot inject non-matching records. For what
	// this node provides itself, its own store is the authority. The
	// lookup's slice is filtered, extended and cut in place: it is the
	// one the caller gets.
	self := n.PeerID()
	results := out.results[:0]
	for i := range out.results {
		if res := &out.results[i]; res.Provider != self && res.CommunityID == communityID && f.Match(&res.Attrs) {
			results = append(results, *res)
		}
	}
	clear(out.results[len(results):])
	if local := n.Shared().Search(communityID, f, 0); len(local) > 0 {
		for _, e := range local {
			results = append(results, p2p.ResultOf(e, self))
		}
		sortRecords(results)
	}
	// Caching STORE: replicate the verified result set onto the
	// closest observed non-holder, so the next querier for this filter
	// terminates there without touching the k holders. Only complete
	// sets are cached — a limit-truncated one would poison unlimited
	// queries for the same filter.
	if n.cfg.CacheRecords && opts.Limit == 0 && !out.limited &&
		out.hasCacheTarget && len(results) > 0 {
		n.cacheStore(sp.Context(), key, out.cacheTarget, results, filterStr)
	}
	if opts.Limit > 0 && len(results) > opts.Limit {
		clear(results[opts.Limit:])
		results = results[:opts.Limit]
	}
	for i := range results {
		results[i].Hops = out.rounds
	}
	n.NodeMetrics().ObserveSearch(n.Clock(), start, len(results))
	return results, nil
}

// CheckLiveness probes the least-recently-seen contact of every
// bucket and evicts the ones that fail to answer, promoting
// replacement-cache candidates into the freed slots — the scheduled
// LRU eviction that is all of a refresh round's bucket maintenance
// (contacts are learned from the join's lookups and from every inbound
// message). A successful probe rotates the contact to the fresh end
// (its pong is traffic), so repeated rounds sweep whole buckets.
// Returns how many contacts were evicted.
func (n *Node) CheckLiveness() int {
	evicted := 0
	for _, c := range n.table.Oldest() {
		if !n.pingPeer(c.Peer) {
			n.table.Remove(c.Peer)
			evicted++
		}
	}
	return evicted
}

// pingPeer probes one contact (for CheckLiveness, and for a republish
// probe's new candidates). Under message loss a live contact can fail
// the probe and be evicted; it re-enters the table on next contact, as
// in Kademlia.
func (n *Node) pingPeer(peer transport.PeerID) bool {
	sc := serveScratchPool.Get().(*serveScratch)
	x, err := n.StartCall(peer, MsgPing, &sc.ping, nil) // StartCall sets its one field
	serveScratchPool.Put(sc)
	if err == nil {
		_, err = n.Await(x, n.cfg.RPCTimeout)
	}
	return err == nil
}

// Refresh is the DHT's rehome-equivalent, run on the caller's
// schedule (the scenario driver paces it on the virtual clock): bucket
// repair (CheckLiveness) followed by adaptive republication of the
// locally stored documents through Reannounce, one reannounceKey per
// community key. There is no self-lookup: a newcomer's own join lookup
// reaches its neighbors, and each of them Observes it, so a round would
// only re-learn what that inbound traffic already taught.
func (n *Node) Refresh() error {
	if n.Closed() {
		return p2p.ErrClosed
	}
	sp := n.Tracer().Root("refresh")
	defer sp.Finish()
	n.CheckLiveness()
	return n.Reannounce(func(es []*index.Entry) error {
		return n.replicate(sp.Context(), es, n.reannounceKey)
	})
}

// reannounceKey republishes recs under key unless the last announce's
// holders are all still among the key's k closest nodes and the records
// are not yet halfway to expiry (so a skipped round can never let them
// lapse). The staleness check comes first because it needs no probe.
// Then one remembered holder is asked for the key's closest nodes
// (probeHolders): an intact key costs that one FIND_NODE round trip
// instead of lookup + k STOREs, and a changed one gets its STOREs on the
// probe's targets with no lookup. Only a key none of whose remembered
// holders answers falls back to a lookup, as do unknown and stale keys.
func (n *Node) reannounceKey(tctx trace.Context, key ID, recs []p2p.Result) {
	n.annMu.Lock()
	st, known := n.lastAnnounce[key]
	n.annMu.Unlock()
	if !known || n.Clock().Now().Sub(st.at) >= n.cfg.RecordTTL/2 {
		n.storeRecords(tctx, key, recs)
		return
	}
	targets, answered := n.probeHolders(tctx, key, st.holders)
	if !answered {
		n.storeRecords(tctx, key, recs)
		return
	}
	intact := true
	for _, h := range st.holders {
		if !slices.ContainsFunc(targets, func(c Contact) bool { return c.Peer == h }) {
			intact = false
			break
		}
	}
	if intact {
		n.ctr.Load().repubSkipped.Inc()
		return
	}
	n.storeToTargets(tctx, key, recs, targets)
}

// probeHolders sends FIND_NODE(key) to the key's remembered holders,
// closest first (the order an announce keeps), until one answers, and
// returns the k closest among that holder and the peers it names, this
// node left out. A named peer the announce did not have is pinged first,
// and one that fails is left out too: a dead contact still in the
// holder's table cannot displace a live holder. A departed holder the
// answering one has not evicted yet reads as live until a later round's
// probe; the k-way replication covers that gap. answered is false when
// no remembered holder answered.
func (n *Node) probeHolders(tctx trace.Context, key ID, holders []transport.PeerID) (targets []Contact, answered bool) {
	sp := n.Tracer().Start(tctx, "probe")
	defer sp.Finish()
	for _, h := range holders {
		x, err := n.StartCall(h, MsgFindNode, &findNodePayload{Target: key}, &sp)
		if err != nil {
			if transport.IsPeerDead(err) {
				n.table.Remove(h)
			}
			continue
		}
		got, err := n.Await(x, n.cfg.RPCTimeout)
		reply, ok := got.(*findNodeReplyPayload)
		if err != nil || !ok {
			continue
		}
		// An honest reply names at most k peers; the rest of a longer
		// one would only cost pings.
		named := reply.Peers[:min(len(reply.Peers), n.cfg.K)]
		cands := append(make([]Contact, 0, len(named)+1), ContactFor(h))
		for _, p := range named {
			if p != n.PeerID() && !slices.ContainsFunc(cands, func(c Contact) bool { return c.Peer == p }) {
				cands = append(cands, ContactFor(p))
			}
		}
		sortByDistance(cands, key)
		for _, c := range cands {
			if len(targets) == n.cfg.K {
				break
			}
			// A target outlives the reply, whose strings share its frame:
			// a holder keeps the announce's copy, a newcomer gets its own.
			if i := slices.Index(holders, c.Peer); i >= 0 {
				c.Peer = holders[i]
			} else if n.pingPeer(c.Peer) {
				c.Peer = transport.PeerID(strings.Clone(string(c.Peer)))
			} else {
				continue
			}
			targets = append(targets, c)
		}
		return targets, true
	}
	return nil, false
}

func (n *Node) handle(msg transport.Message) {
	// Every inbound message is evidence its sender is alive: the
	// Kademlia rule that keeps routing state fresh for free.
	n.table.Observe(msg.From)
	switch msg.Type {
	case MsgPing:
		var req pingPayload
		if err := req.DecodeBinary(msg.Payload); err != nil {
			return
		}
		// A lost pong is the prober's timeout, as for every reply below.
		sc := serveScratchPool.Get().(*serveScratch)
		sc.ping = pingPayload{ReqID: req.ReqID}
		_ = n.Send(msg.From, MsgPong, &sc.ping, nil)
		serveScratchPool.Put(sc)
	case MsgFindNode:
		var req findNodePayload
		if err := req.DecodeBinary(msg.Payload); err != nil {
			return
		}
		sp := n.StartSpan(msg, "findnode.serve")
		sc := serveScratchPool.Get().(*serveScratch)
		sc.findNodeReply = findNodeReplyPayload{
			ReqID: req.ReqID,
			Peers: n.closestPeers(sc, req.Target),
		}
		_ = n.Send(msg.From, MsgFindNodeReply, &sc.findNodeReply, &sp)
		sc.findNodeReply = findNodeReplyPayload{}
		serveScratchPool.Put(sc)
		sp.Finish()
	case MsgFindValue:
		var req findValueRequest
		if err := req.read(msg.Payload); err != nil {
			return
		}
		sp := n.StartSpan(msg, "findvalue.serve")
		if sp.Context().Valid() { // a span outlives the handler: it takes a copy
			sp.SetCommunity(string(req.community))
		}
		sc := serveScratchPool.Get().(*serveScratch)
		reply := &sc.findValueReply
		*reply = findValueReplyPayload{
			ReqID: req.ReqID,
			Peers: n.closestPeers(sc, req.Key),
		}
		// An unparseable filter yields no records, never all of them:
		// the reply still carries contacts so the lookup can route on,
		// but failing open to the whole record set would let one
		// malformed query read the entire key.
		// The one copy of the request: the parsed filter keeps substrings
		// of it, and the community rides along in the same string.
		var b strings.Builder
		b.Grow(len(req.filter) + len(req.community))
		b.Write(req.filter)
		b.Write(req.community)
		both := b.String()
		vq := valueQuery{filter: both[:len(req.filter)], communityID: both[len(req.filter):], limit: req.Limit}
		var err error
		if vq.match, err = query.Parse(vq.filter); err == nil {
			into := &sc.records
			if req.DigestOnly {
				into = nil
			}
			reply.Records, reply.Digest, reply.Complete = n.records.get(into, req.Key, n.Clock().Now(), &vq, req.Have)
		}
		_ = n.Send(msg.From, MsgFindValueReply, reply, &sp)
		*reply = findValueReplyPayload{}
		clearRecords(&sc.records)
		serveScratchPool.Put(sc)
		sp.Finish()
	case MsgStore:
		var req storePayload
		if err := req.DecodeBinary(msg.Payload); err != nil {
			return
		}
		sp := n.StartSpan(msg, "store.serve")
		// A record belongs under its community's key: no STORE files
		// one under another key, where searches of that community would
		// never look and other communities' would pay for it. The key is
		// derived once per run of one community.
		//
		// Provenance: a peer may only store records it provides itself
		// (every legitimate publish/refresh does exactly that), so one
		// peer cannot forge records under another's name. A caching
		// STORE relays third-party providers by design, so that rule
		// cannot apply to it. Its copies are confined: halved TTL,
		// filter-tagged, never republished, first to be evicted — a
		// forged cache pollutes one key for half a TTL at worst, it
		// cannot displace primaries. A frame that loses records to either
		// rule is counted.
		kept := req.Records[:0]
		var community string
		var communityKey ID
		for i, rec := range req.Records {
			if i == 0 || rec.CommunityID != community {
				community, communityKey = rec.CommunityID, KeyForCommunity(rec.CommunityID)
			}
			if communityKey == req.Key && (req.Cached || rec.Provider == msg.From) {
				kept = append(kept, rec)
			}
		}
		if len(kept) < len(req.Records) {
			n.NodeMetrics().CountError(errStoreRefused)
		}
		if req.Cached {
			n.records.putCached(req.Key, kept, n.Clock().Now(), req.Filter)
		} else {
			n.records.put(req.Key, kept, n.Clock().Now())
		}
		sp.Finish()
	case MsgUnstore:
		var req unstorePayload
		if err := req.DecodeBinary(msg.Payload); err != nil {
			return
		}
		// Same provenance rule: only the providing peer can withdraw
		// its own record.
		if req.Provider != msg.From {
			return
		}
		sp := n.StartSpan(msg, "unstore.serve")
		n.records.remove(req.Key, req.DocID, req.Provider)
		sp.Finish()
	case MsgPong:
		reply := new(pingPayload)
		if reply.DecodeBinary(msg.Payload) == nil {
			n.Resolve(reply.ReqID, reply)
		}
	case MsgFindNodeReply:
		reply := new(findNodeReplyPayload)
		if reply.DecodeBinary(msg.Payload) == nil {
			n.Resolve(reply.ReqID, reply)
		}
	case MsgFindValueReply:
		reply := new(findValueReplyPayload)
		if reply.DecodeBinary(msg.Payload) == nil {
			n.Resolve(reply.ReqID, reply)
		}
	default:
		n.HandleRetrieval(msg)
	}
}

// serveScratch pools the frames a node answers with, and pingPeer's
// request, with what answering a FIND_NODE or FIND_VALUE selects the
// reply's contacts and gathers its records in: a frame is encoded by
// the time Send returns, so one request's scratch serves the next. A
// reply is zeroed and its records cleared after its send, so the pool
// pins no strings.
type serveScratch struct {
	closest        []Contact
	peers          []transport.PeerID
	records        []p2p.Result
	ping           pingPayload
	findNodeReply  findNodeReplyPayload
	findValueReply findValueReplyPayload
}

var serveScratchPool = sync.Pool{New: func() any { return new(serveScratch) }}

// closestPeers returns, in sc, the peer IDs of the K live contacts
// closest to target.
func (n *Node) closestPeers(sc *serveScratch, target ID) []transport.PeerID {
	sc.closest = n.table.ClosestAppend(sc.closest[:0], target, n.cfg.K)
	sc.peers = appendContactPeers(sc.peers[:0], sc.closest)
	return sc.peers
}

// appendContactPeers appends the contacts' peer IDs to dst.
func appendContactPeers(dst []transport.PeerID, cs []Contact) []transport.PeerID {
	for _, c := range cs {
		dst = append(dst, c.Peer)
	}
	return dst
}
