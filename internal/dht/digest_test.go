package dht

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// meteredNet is sharedNet with the network's own counters
// (transport.msgs_delivered, transport.bytes_delivered) in the same
// registry as the nodes' dht.* ones.
func meteredNet(t *testing.T, n int, cfg Config) ([]*Node, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	net := transport.NewMemNetwork(transport.WithSeed(1), transport.WithMetrics(reg))
	nodes := make([]*Node, n)
	for i := range nodes {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lossy := &lossyEndpoint{Endpoint: ep}
		nodes[i] = NewNode(lossy, index.NewStore(), cfg)
		nodes[i].SetMetrics(reg)
		lossyOf[nodes[i]] = lossy
	}
	for i := 1; i < n; i++ {
		nodes[i].Bootstrap(nodes[0].PeerID())
	}
	return nodes, reg
}

// lossyEndpoint loses the frames drop picks, silently, as the network
// would.
type lossyEndpoint struct {
	transport.Endpoint
	drop func(transport.Message) bool
}

// lossyOf finds the endpoint meteredNet put under a node.
var lossyOf = map[*Node]*lossyEndpoint{}

func (e *lossyEndpoint) Send(msg transport.Message) error {
	if e.drop != nil && e.drop(msg) {
		return nil
	}
	return e.Endpoint.Send(msg)
}

// publishPatterns publishes count documents round-robin, alternating
// two classifications, and returns them.
func publishPatterns(t *testing.T, nodes []*Node, count int) []*index.Document {
	t.Helper()
	docs := make([]*index.Document, count)
	for i := range docs {
		class := "behavioral"
		if i%2 == 0 {
			class = "creational"
		}
		docs[i] = doc(i, "patterns", class)
		if err := nodes[i%len(nodes)].Publish(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return docs
}

// byDistance returns the nodes other than skip, closest to key first.
func byDistance(nodes []*Node, key ID, skip *Node) []*Node {
	byPeer := make(map[transport.PeerID]*Node, len(nodes))
	var cs []Contact
	for _, nd := range nodes {
		if nd != skip {
			byPeer[nd.PeerID()] = nd
			cs = append(cs, ContactFor(nd.PeerID()))
		}
	}
	sortByDistance(cs, key)
	out := make([]*Node, len(cs))
	for i, c := range cs {
		out[i] = byPeer[c.Peer]
	}
	return out
}

func digestOf(nd *Node, key ID, f query.Filter) setDigest {
	_, dig, _ := nd.records.get(nil, key, nd.Clock().Now(), &valueQuery{communityID: "patterns", filter: f.String(), match: f}, setDigest{})
	return dig
}

func pairs(rs []p2p.Result) []docProvider {
	out := make([]docProvider, len(rs))
	for i, r := range rs {
		out[i] = docProvider{r.DocID, r.Provider}
	}
	return out
}

// TestDigestOrderIndependent: the digest of a set does not depend on
// the order its records were stored in, and moves when the set does.
func TestDigestOrderIndependent(t *testing.T) {
	key := KeyForCommunity("patterns")
	t0 := time.Unix(1000, 0)
	f := query.MatchAll{}
	digest := func(order []int) setDigest {
		rs := newRecordStore(time.Minute, 0)
		for _, i := range order {
			rs.put(key, []p2p.Result{rec(i, fmt.Sprintf("peer%d", i%3))}, t0)
		}
		_, dig, _ := rs.get(nil, key, t0, &valueQuery{communityID: "patterns", filter: f.String(), match: f}, setDigest{})
		return dig
	}
	a, b := digest([]int{0, 1, 2, 3, 4, 5, 6}), digest([]int{6, 2, 4, 0, 5, 3, 1})
	if a != b || a.Count != 7 {
		t.Fatalf("same set, different order: %+v vs %+v", a, b)
	}
	if c := digest([]int{0, 1, 2, 3, 4, 5, 7}); c == a {
		t.Fatalf("different set, equal digest %+v", c)
	}
}

// TestDigestEqualAcrossHolders: once publishing has quiesced, the k
// holders of a key digest equal, for the whole key and for a filter.
func TestDigestEqualAcrossHolders(t *testing.T) {
	const k = 8
	nodes, _ := meteredNet(t, 32, Config{K: k, Alpha: 3})
	publishPatterns(t, nodes, 48)
	key := KeyForCommunity("patterns")
	for _, tc := range []struct {
		f    query.Filter
		want uint32
	}{{query.MatchAll{}, 48}, {query.MustParse("(classification=behavioral)"), 24}} {
		holders := byDistance(nodes, key, nil)[:k]
		want := digestOf(holders[0], key, tc.f)
		if want.Count != tc.want {
			t.Fatalf("filter %s: closest holder has %d records, want %d", tc.f, want.Count, tc.want)
		}
		for _, h := range holders[1:] {
			if got := digestOf(h, key, tc.f); got != want {
				t.Errorf("filter %s: holder %s digests %+v, closest holder %+v", tc.f, h.PeerID(), got, want)
			}
		}
	}
}

// TestDigestMismatchPull: a holder that lost one record is found out
// by its digest and asked once for its set — the search still returns
// the exact truth, at the price of one round trip.
func TestDigestMismatchPull(t *testing.T) {
	nodes, reg := meteredNet(t, 32, Config{K: 8, Alpha: 3})
	docs := publishPatterns(t, nodes, 48)
	key := KeyForCommunity("patterns")
	// A querier that holds no slice of its own and whose first wave
	// lands on three of the eight full holders, so that its second
	// candidate — the one made to diverge below — is asked DigestOnly.
	// (The ninth-closest node keeps a partial slice, left there by
	// over-replication; asked after the set is in hand it ships that
	// slice and counts a mismatch in the steady state too.)
	order := byDistance(nodes, key, nil)
	full := make(map[transport.PeerID]bool)
	for _, nd := range order[:8] {
		full[nd.PeerID()] = true
	}
	var querier *Node
	for _, nd := range order[9:] {
		first := nd.table.Closest(key, 3)
		if full[first[0].Peer] && full[first[1].Peer] && full[first[2].Peer] {
			querier = nd
		}
	}
	if querier == nil {
		t.Fatal("no querier whose first wave is three full holders")
	}
	search := func(opts p2p.SearchOptions) ([]docProvider, *metrics.Snapshot) {
		before := reg.Snapshot()
		rs, err := querier.Search("patterns", nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pairs(rs), reg.Snapshot().Delta(before)
	}
	truth, steady := search(p2p.SearchOptions{})
	if len(truth) != len(docs) {
		t.Fatalf("steady search found %d of %d", len(truth), len(docs))
	}
	if got := steady.Counter("dht.digest_mismatches"); got != 0 {
		t.Fatalf("steady state counted %d mismatches", got)
	}
	// The second candidate of the querier's first wave is asked for its
	// digest only; make that holder the one that diverged.
	diverged := querier.table.Closest(key, 2)[1].Peer
	for _, nd := range nodes {
		if nd.PeerID() == diverged {
			nd.records.remove(key, docs[5].ID, nodes[5].PeerID())
		}
	}
	tr := trace.New(string(querier.PeerID()), "dht", trace.WithSampling(1))
	querier.SetTracer(tr)
	root := tr.Root("query")
	got, after := search(p2p.SearchOptions{Trace: root.Context()})
	if !slices.Equal(got, truth) {
		t.Fatalf("search after divergence returned %d records, want the %d of the truth", len(got), len(truth))
	}
	// The pull is its own span, with its frame attributed to it.
	var pulls []trace.Span
	for _, sp := range tr.Snapshot() {
		if sp.Op == "pull" {
			pulls = append(pulls, sp)
		}
	}
	if len(pulls) != 1 || pulls[0].Msgs != 1 || pulls[0].Bytes == 0 {
		t.Errorf("pull spans = %+v, want one span carrying one frame", pulls)
	}
	if n := after.Counter("dht.digest_mismatches"); n != 1 {
		t.Errorf("digest_mismatches = %d, want 1", n)
	}
	if extra := after.Counter("transport.msgs_delivered") - steady.Counter("transport.msgs_delivered"); extra != 2 {
		t.Errorf("divergence cost %d extra messages, want 2 (one pull, one reply)", extra)
	}
}

// TestPartialFirstSetShipsOnce: when the first set to arrive is a
// partial one (a stale replica, the slice over-replication leaves just
// outside the k closest), the holders of the full set still ship one
// copy between them, not one per RPC of the next wave.
func TestPartialFirstSetShipsOnce(t *testing.T) {
	nodes, reg := meteredNet(t, 32, Config{K: 8, Alpha: 3})
	docs := publishPatterns(t, nodes, 48)
	key := KeyForCommunity("patterns")
	order := byDistance(nodes, key, nil)
	querier := order[len(order)-1]
	first := querier.table.Closest(key, 1)[0].Peer
	var set []p2p.Result
	for i, dc := range docs {
		set = append(set, recordFor(dc, nodes[i%len(nodes)].PeerID()))
		if i > 0 {
			for _, nd := range nodes {
				if nd.PeerID() == first {
					nd.records.remove(key, dc.ID, nodes[i%len(nodes)].PeerID())
				}
			}
		}
	}
	before := reg.Snapshot()
	rs, err := querier.Search("patterns", nil, p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(docs) {
		t.Fatalf("found %d of %d", len(rs), len(docs))
	}
	d := reg.Snapshot().Delta(before)
	if moved, one := d.Counter("transport.bytes_delivered"), int64(len(appendRecords(nil, set))); moved >= 2*one {
		t.Errorf("search moved %d bytes, one copy of the set is %d", moved, one)
	}
}

// TestQuerierHolderTransfersNothing: a querier that is itself a holder
// stamps its own slice's digest on every RPC, so every other holder
// answers with a digest and no record crosses the wire.
func TestQuerierHolderTransfersNothing(t *testing.T) {
	// 8 nodes at k=8: every node is a holder of every key.
	nodes, reg := meteredNet(t, 8, Config{K: 8, Alpha: 3})
	docs := publishPatterns(t, nodes, 40)
	before := reg.Snapshot()
	rs, err := nodes[3].Search("patterns", nil, p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(docs) {
		t.Fatalf("found %d of %d", len(rs), len(docs))
	}
	d := reg.Snapshot().Delta(before)
	rpcs := d.Counter("dht.peers_contacted")
	if got := d.Counter("dht.digest_replies"); rpcs == 0 || got != rpcs {
		t.Errorf("digest_replies = %d, want one per RPC (%d)", got, rpcs)
	}
	if got := d.Counter("dht.digest_mismatches"); got != 0 {
		t.Errorf("digest_mismatches = %d, want 0", got)
	}
	// Everything the search moved is smaller than one copy of the set.
	var set []p2p.Result
	for i, dc := range docs {
		set = append(set, recordFor(dc, nodes[i%len(nodes)].PeerID()))
	}
	if moved, one := d.Counter("transport.bytes_delivered"), int64(len(appendRecords(nil, set))); moved >= one {
		t.Errorf("search moved %d bytes, one copy of the set is %d", moved, one)
	}
}

// TestCompleteDigestReplyTerminates: a cached copy whose digest equals
// the querier's Have answers Complete without records, and that still
// ends a value-terminating lookup on the spot.
func TestCompleteDigestReplyTerminates(t *testing.T) {
	run := func(cached bool) (int, *metrics.Snapshot) {
		nodes, reg := meteredNet(t, 32, Config{K: 4, Alpha: 1, CacheRecords: true})
		docs := publishPatterns(t, nodes, 12)
		key := KeyForCommunity("patterns")
		f := query.MustParse("(classification=behavioral)")
		var set []p2p.Result
		for i, dc := range docs {
			if f.Match(dc.Attrs) {
				set = append(set, recordFor(dc, nodes[i%len(nodes)].PeerID()))
			}
		}
		order := byDistance(nodes, key, nil)
		querier := order[len(order)-1]
		// The querier holds the set (as a holder would); the first peer
		// it will ask holds a cached copy of the same set.
		querier.records.put(key, set, querier.Clock().Now())
		if cached {
			first := querier.table.Closest(key, 1)[0].Peer
			for _, nd := range nodes {
				if nd.PeerID() == first {
					nd.records.putCached(key, set, nd.Clock().Now(), f.String())
				}
			}
		}
		before := reg.Snapshot()
		rs, err := querier.Search("patterns", f, p2p.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return len(rs), reg.Snapshot().Delta(before)
	}
	found, d := run(true)
	if found != 6 {
		t.Fatalf("cached run found %d, want 6", found)
	}
	if rpcs, digests := d.Counter("dht.peers_contacted"), d.Counter("dht.digest_replies"); rpcs != 1 || digests != 1 {
		t.Errorf("cached run: %d RPCs, %d digest replies; want the lookup to stop on the first, record-less, reply", rpcs, digests)
	}
	if _, d := run(false); d.Counter("dht.peers_contacted") <= 1 {
		t.Errorf("uncached run contacted %d peers: the scenario does not need the cache to stop early", d.Counter("dht.peers_contacted"))
	}
}

// TestLostPullKeepsConverging: an early exit — a Complete cached set, a
// reached limit — that a responder only announced by digest happens
// when the records arrive, not before. With the one frame that fetches
// them lost, the lookup converges on the holders as if the announcement
// had never come, and the search caches nothing.
func TestLostPullKeepsConverging(t *testing.T) {
	for name, limit := range map[string]int{"value termination": 0, "limit": 4} {
		nodes, reg := meteredNet(t, 32, Config{K: 4, Alpha: 2, CacheRecords: true})
		docs := publishPatterns(t, nodes, 12)
		key := KeyForCommunity("patterns")
		f := query.MustParse("(classification=behavioral)")
		var set []p2p.Result
		for i, dc := range docs {
			if f.Match(dc.Attrs) {
				set = append(set, recordFor(dc, nodes[i%len(nodes)].PeerID()))
			}
		}
		order := byDistance(nodes, key, nil)
		querier := order[len(order)-1]
		// The first wave's closest candidate holds nothing, so the second
		// — a cached copy of the full set — is asked for its digest only.
		first := querier.table.Closest(key, 2)
		for _, nd := range nodes {
			switch nd.PeerID() {
			case first[0].Peer:
				for _, r := range set {
					nd.records.remove(key, r.DocID, r.Provider)
				}
			case first[1].Peer:
				nd.records.putCached(key, set, nd.Clock().Now(), f.String())
			}
		}
		// Lose the second FIND_VALUE to the cache: the pull.
		asked := 0
		lossyOf[querier].drop = func(msg transport.Message) bool {
			if msg.Type != MsgFindValue || msg.To != first[1].Peer {
				return false
			}
			asked++
			return asked == 2
		}
		before := reg.Snapshot()
		rs, err := querier.Search("patterns", f, p2p.SearchOptions{Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		want := len(set)
		if limit > 0 {
			want = limit
		}
		if asked < 2 {
			t.Fatalf("%s: the cache was asked %d times, the scenario needs a pull", name, asked)
		}
		if len(rs) != want {
			t.Errorf("%s: found %d records with the pull lost, want %d", name, len(rs), want)
		}
		if n := reg.Snapshot().Delta(before).Counter("dht.cache_stores"); n != 0 {
			t.Errorf("%s: %d caching STOREs after a set went missing", name, n)
		}
	}
}

// TestDigestPathAllocatesNothing pins the holder side of a record-less
// reply: digesting a key — asked digest-only, or holding exactly what
// the querier has — allocates nothing, so what is left of serving such
// a reply is the frame decode and encode every reply pays.
func TestDigestPathAllocatesNothing(t *testing.T) {
	rs := newRecordStore(time.Minute, 0)
	key := KeyForCommunity("patterns")
	t0 := time.Unix(1000, 0)
	for i := 0; i < 200; i++ {
		rs.put(key, []p2p.Result{rec(i, "peerA")}, t0)
	}
	f := query.MustParse("(classification=behavioral)")
	fs := f.String()
	_, have, _ := rs.get(nil, key, t0, &valueQuery{communityID: "patterns", filter: fs, match: f}, setDigest{})
	if have.Count != 200 {
		t.Fatalf("digest counts %d records, want 200", have.Count)
	}
	// A holder's scratch, as it is once the pool has warmed up.
	scratch := make([]p2p.Result, 0, 200)
	for name, into := range map[string]*[]p2p.Result{"digest-only": nil, "have matches": &scratch} {
		allocs := testing.AllocsPerRun(100, func() {
			if recs, dig, _ := rs.get(into, key, t0, &valueQuery{communityID: "patterns", filter: fs, match: f}, have); recs != nil || dig != have {
				t.Fatalf("%s: got %d records, digest %+v", name, len(recs), dig)
			}
			if into != nil {
				clearRecords(into)
			}
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: %v allocations per digest, want 0", name, allocs)
		}
	}
}
