package dht

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dsim"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// testNet builds n bootstrapped DHT nodes on one in-memory network.
func testNet(t *testing.T, n int, cfg Config) (*transport.MemNetwork, []*Node) {
	t.Helper()
	net := transport.NewMemNetwork(transport.WithSeed(1))
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(ep, index.NewStore(), cfg)
	}
	for i := 1; i < n; i++ {
		nodes[i].Bootstrap(nodes[0].PeerID())
	}
	return net, nodes
}

func doc(i int, community, class string) *index.Document {
	return &index.Document{
		ID:          index.DocID(fmt.Sprintf("d-%04d", i)),
		CommunityID: community,
		Title:       fmt.Sprintf("doc %d", i),
		Attrs:       query.Attrs{"classification": {class}},
	}
}

// TestPublishSearchAcrossNodes: records published anywhere are found
// from everywhere via community-key lookups, with server-side filters
// honored.
func TestPublishSearchAcrossNodes(t *testing.T) {
	_, nodes := testNet(t, 24, Config{K: 4, Alpha: 2})
	for i := 0; i < 12; i++ {
		class := "behavioral"
		if i%2 == 0 {
			class = "creational"
		}
		if err := nodes[i].Publish(doc(i, "patterns", class)); err != nil {
			t.Fatal(err)
		}
	}
	for _, searcher := range []int{0, 7, 23} {
		rs, err := nodes[searcher].Search("patterns", query.MustParse("(classification=behavioral)"), p2p.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 6 {
			t.Fatalf("searcher %d: %d hits, want 6", searcher, len(rs))
		}
		for _, r := range rs {
			if r.CommunityID != "patterns" || r.Attrs.Get("classification") != "behavioral" {
				t.Fatalf("bad hit: %+v", r)
			}
		}
	}
	// Limit caps the merged result set.
	rs, err := nodes[3].Search("patterns", nil, p2p.SearchOptions{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("limited search: %d hits, want 4", len(rs))
	}
}

// TestUnpublishLeavesOtherProvider: one document published by two
// providers is two records under the community key; withdrawing one
// leaves the other searchable from everywhere, the withdrawer included.
func TestUnpublishLeavesOtherProvider(t *testing.T) {
	_, nodes := testNet(t, 16, Config{K: 4, Alpha: 2})
	d := doc(1, "patterns", "structural")
	for _, p := range []int{5, 8} {
		if err := nodes[p].Publish(doc(1, "patterns", "structural")); err != nil {
			t.Fatal(err)
		}
	}
	providers := func(searcher int) []transport.PeerID {
		rs, err := nodes[searcher].Search("patterns", nil, p2p.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var out []transport.PeerID
		for _, r := range rs {
			if r.DocID != d.ID {
				t.Fatalf("searcher %d: stray hit %+v", searcher, r)
			}
			out = append(out, r.Provider)
		}
		return out
	}
	if got := providers(0); len(got) != 2 {
		t.Fatalf("providers before unpublish = %v, want both", got)
	}
	if err := nodes[5].Unpublish(d.ID); err != nil {
		t.Fatal(err)
	}
	for _, searcher := range []int{0, 5, 11} {
		if got := providers(searcher); len(got) != 1 || got[0] != nodes[8].PeerID() {
			t.Fatalf("searcher %d: providers after unpublish = %v, want only %s", searcher, got, nodes[8].PeerID())
		}
	}
}

// TestPublishUnpublishTraffic pins what one document costs on a quiet
// network: a publish is one lookup (its community key) and one STORE to
// each of the K closest nodes, an unpublish one lookup.
func TestPublishUnpublishTraffic(t *testing.T) {
	const k = 4
	nodes, reg := sharedNet(t, 16, Config{K: k, Alpha: 2})
	d := doc(1, "patterns", "structural")
	before := reg.Snapshot()
	if err := nodes[5].Publish(d); err != nil {
		t.Fatal(err)
	}
	delta := reg.Snapshot().Delta(before)
	if got := delta.Counter("dht.lookups"); got != 1 {
		t.Errorf("publish: dht.lookups +%d, want +1", got)
	}
	if got := delta.Counter("dht.store_fanout"); got != k {
		t.Errorf("publish: dht.store_fanout +%d, want +%d", got, k)
	}
	before = reg.Snapshot()
	if err := nodes[5].Unpublish(d.ID); err != nil {
		t.Fatal(err)
	}
	delta = reg.Snapshot().Delta(before)
	if got := delta.Counter("dht.lookups"); got != 1 {
		t.Errorf("unpublish: dht.lookups +%d, want +1", got)
	}
	if got := delta.Counter("dht.store_fanout"); got != 0 {
		t.Errorf("unpublish: dht.store_fanout +%d, want 0", got)
	}
}

// TestRecordExpiryAndRefresh: on a virtual clock, records age out at
// RecordTTL unless the publisher's Refresh re-replicates them.
func TestRecordExpiryAndRefresh(t *testing.T) {
	clk := dsim.NewVirtualClock()
	net := transport.NewMemNetwork(transport.WithSeed(1))
	cfg := Config{K: 3, Alpha: 2, RecordTTL: 10 * time.Second}
	var nodes []*Node
	for i := 0; i < 10; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nd := NewNode(ep, index.NewStore(), cfg)
		nd.SetClock(clk)
		nodes = append(nodes, nd)
	}
	for i := 1; i < len(nodes); i++ {
		nodes[i].Bootstrap(nodes[0].PeerID())
	}
	if err := nodes[4].Publish(doc(9, "patterns", "behavioral")); err != nil {
		t.Fatal(err)
	}
	search := func(from int) int {
		rs, err := nodes[from].Search("patterns", nil, p2p.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return len(rs)
	}
	if got := search(7); got != 1 {
		t.Fatalf("pre-expiry hits = %d", got)
	}
	// Advance past the TTL without a refresh: the record is gone for
	// everyone but its publisher (who still holds the object).
	clk.RunUntil(clk.Now().Add(11 * time.Second))
	if got := search(7); got != 0 {
		t.Fatalf("post-expiry hits = %d, want 0", got)
	}
	if got := search(4); got != 1 {
		t.Fatalf("publisher lost its own object: hits = %d", got)
	}
	// Refresh republishes and restores remote discoverability.
	if err := nodes[4].Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := search(7); got != 1 {
		t.Fatalf("post-refresh hits = %d, want 1", got)
	}
}

// TestDeadContactRepair: killed peers are evicted on definitive send
// errors and scheduled liveness checks; lookups keep working.
func TestDeadContactRepair(t *testing.T) {
	_, nodes := testNet(t, 12, Config{K: 3, Alpha: 2})
	for i := 0; i < 6; i++ {
		if err := nodes[i].Publish(doc(i, "patterns", "behavioral")); err != nil {
			t.Fatal(err)
		}
	}
	// Kill a third of the network, including a publisher.
	for _, victim := range []int{1, 6, 9} {
		if err := nodes[victim].Close(); err != nil {
			t.Fatal(err)
		}
	}
	// One liveness round probes (and on success rotates) one contact
	// per bucket, so k rounds sweep a full bucket.
	for round := 0; round < 3; round++ {
		for _, alive := range []int{0, 2, 3, 4, 5, 7, 8, 10, 11} {
			nodes[alive].CheckLiveness()
		}
	}
	for _, alive := range []int{0, 2, 3, 4, 5, 7, 8, 10, 11} {
		for _, c := range nodes[alive].table.Closest(nodes[alive].self, 0) {
			if c.Peer == nodes[1].PeerID() || c.Peer == nodes[6].PeerID() || c.Peer == nodes[9].PeerID() {
				t.Fatalf("node %d still routes to dead contact %s", alive, c.Peer)
			}
		}
	}
	rs, err := nodes[11].Search("patterns", query.MustParse("(classification=behavioral)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 5 {
		t.Fatalf("post-churn hits = %d, want >= 5 (one publisher died)", len(rs))
	}
}

// TestLookupConvergence: at 64 nodes with k=8 the hop count stays
// logarithmic (well under the flooding diameter) and repeated
// lookups are deterministic.
func TestLookupConvergence(t *testing.T) {
	_, nodes := testNet(t, 64, Config{K: 8, Alpha: 3})
	target := KeyForCommunity("patterns")
	reg := metrics.NewRegistry()
	nodes[17].SetMetrics(reg)
	out1 := nodes[17].lookup(trace.Context{}, target, nil, true)
	out2 := nodes[17].lookup(trace.Context{}, target, nil, true)
	if out1.rounds == 0 || out1.rounds > 6 {
		t.Fatalf("rounds = %d, want 1..6", out1.rounds)
	}
	d := reg.Snapshot()
	lookups, rounds, contacted := d.Counter("dht.lookups"), d.Counter("dht.lookup_rounds"), d.Counter("dht.peers_contacted")
	if lookups != 2 || rounds != int64(out1.rounds+out2.rounds) || contacted <= 0 {
		t.Fatalf("lookup counters inconsistent: lookups=%d rounds=%d (want %d) contacted=%d",
			lookups, rounds, out1.rounds+out2.rounds, contacted)
	}
	if len(out1.contacts) != 8 {
		t.Fatalf("contacts = %d, want k=8", len(out1.contacts))
	}
	for i := range out1.contacts {
		if out1.contacts[i].Peer != out2.contacts[i].Peer {
			t.Fatalf("lookup not deterministic at %d", i)
		}
	}
	// The lookup's k closest must equal the brute-force k closest
	// over the whole population (everyone is reachable and alive).
	all := make([]Contact, 0, len(nodes))
	for _, nd := range nodes {
		if nd.PeerID() != nodes[17].PeerID() {
			all = append(all, ContactFor(nd.PeerID()))
		}
	}
	sortByDistance(all, target)
	for i := 0; i < 8; i++ {
		if out1.contacts[i].Peer != all[i].Peer {
			t.Fatalf("lookup closest[%d] = %s, oracle %s", i, out1.contacts[i].Peer, all[i].Peer)
		}
	}
}

// TestStoreProvenance: a peer can neither forge records under another
// provider's name nor withdraw another provider's records — STORE and
// unstore frames only act when Provider matches the sender.
func TestStoreProvenance(t *testing.T) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	cfg := Config{K: 4, Alpha: 2}
	mk := func(id string) *Node {
		ep, err := net.Endpoint(transport.PeerID(id))
		if err != nil {
			t.Fatal(err)
		}
		return NewNode(ep, index.NewStore(), cfg)
	}
	holder, victim, attacker := mk("holder"), mk("victim"), mk("attacker")
	victim.Bootstrap(holder.PeerID())
	attacker.Bootstrap(holder.PeerID())
	if err := victim.Publish(doc(1, "patterns", "behavioral")); err != nil {
		t.Fatal(err)
	}
	key := KeyForCommunity("patterns")
	// Forged STORE: attacker claims the victim provides a document.
	forged := p2p.Result{DocID: "d-evil", CommunityID: "patterns", Provider: victim.PeerID(), Attrs: query.FieldsOf(query.Attrs{"classification": {"behavioral"}})}
	atkEP, err := net.Endpoint("attacker-raw")
	if err != nil {
		t.Fatal(err)
	}
	forgedStore := storePayload{Key: key, Records: []p2p.Result{forged}}
	_ = atkEP.Send(transport.Message{To: holder.PeerID(), Type: MsgStore, Payload: codec.Encode(&forgedStore)})
	// Forged flood in the layout of the retired hot-key migration STORE:
	// key ‖ records ‖ Cached=0 ‖ Filter="" ‖ a trailing split flag of 1.
	// A holder that trusted the flag would take 1 024 records in the
	// victim's name and evict the real one to make room.
	flood := make([]p2p.Result, DefaultMaxRecordsPerKey)
	for i := range flood {
		flood[i] = forged
		flood[i].DocID = index.DocID(fmt.Sprintf("d-split-%04d", i))
	}
	splitStore := appendRecords(append([]byte(nil), key[:]...), flood)
	splitStore = codec.AppendString(codec.AppendBool(splitStore, false), "")
	splitStore = append(splitStore, 1)
	_ = atkEP.Send(transport.Message{To: holder.PeerID(), Type: MsgStore, Payload: splitStore})
	if got := holder.RecordCount(); got != 1 {
		t.Errorf("holder keeps %d records after the forged STOREs, want the victim's one", got)
	}
	// Forged unstore: attacker withdraws the victim's real record.
	real := doc(1, "patterns", "behavioral")
	forgedUnstore := unstorePayload{Key: key, DocID: real.ID, Provider: victim.PeerID()}
	_ = atkEP.Send(transport.Message{To: holder.PeerID(), Type: MsgUnstore, Payload: codec.Encode(&forgedUnstore)})
	rs, err := attacker.Search("patterns", query.MustParse("(classification=behavioral)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].DocID != real.ID || rs[0].Provider != victim.PeerID() {
		t.Fatalf("%d results, first %+v; want only the victim's real record intact", len(rs), rs[:min(len(rs), 2)])
	}
}

// TestStoreRecordOutsideItsKeyRefused: a record belongs under its
// community's key. A STORE that files one under another key — primary
// or caching, in the sender's own name — leaves the holder with nothing,
// and each such frame counts one dht.store_refused, as does a primary
// STORE in another provider's name. An honest cluster, caching STOREs
// included, counts none.
func TestStoreRecordOutsideItsKeyRefused(t *testing.T) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	hep, err := net.Endpoint("holder")
	if err != nil {
		t.Fatal(err)
	}
	holder := NewNode(hep, index.NewStore(), Config{K: 4, Alpha: 2})
	reg := metrics.NewRegistry()
	holder.SetMetrics(reg)
	refused := func(reg *metrics.Registry) int64 {
		return reg.Snapshot().Label(metrics.ErrorsVecName, "dht.store_refused")
	}
	raw, err := net.Endpoint("sender")
	if err != nil {
		t.Fatal(err)
	}
	stray := p2p.Result{DocID: "d-0001", CommunityID: "other", Title: "doc 1", Provider: raw.ID(),
		Attrs: query.FieldsOf(query.Attrs{"classification": {"behavioral"}})}
	key := KeyForCommunity("patterns")
	for i, store := range []storePayload{
		{Key: key, Records: []p2p.Result{stray}},
		{Key: key, Records: []p2p.Result{stray}, Cached: true, Filter: "(classification=behavioral)"},
	} {
		_ = raw.Send(transport.Message{To: holder.PeerID(), Type: MsgStore, Payload: codec.Encode(&store)})
		if got := holder.RecordCount(); got != 0 {
			t.Fatalf("holder keeps %d records of community other under the patterns key (cached STORE %v), want 0", got, store.Cached)
		}
		if got := refused(reg); got != int64(i+1) {
			t.Fatalf("after %d refused STOREs dht.store_refused = %d", i+1, got)
		}
	}
	forged := stray
	forged.CommunityID, forged.Provider = "patterns", "victim"
	mine := forged
	mine.DocID, mine.Provider = "d-0002", raw.ID()
	store := storePayload{Key: key, Records: []p2p.Result{forged, mine}}
	_ = raw.Send(transport.Message{To: holder.PeerID(), Type: MsgStore, Payload: codec.Encode(&store)})
	if got := holder.RecordCount(); got != 1 {
		t.Fatalf("holder keeps %d records of a STORE with one forged, want the sender's own", got)
	}
	if got := refused(reg); got != 3 {
		t.Fatalf("after a STORE in another provider's name dht.store_refused = %d, want 3", got)
	}

	nodes, honest := sharedNet(t, 64, Config{K: 4, Alpha: 2, CacheRecords: true})
	for i := 0; i < 12; i++ {
		if err := nodes[i].Publish(doc(i, "patterns", []string{"behavioral", "creational"}[i%2])); err != nil {
			t.Fatal(err)
		}
	}
	f := query.MustParse("(classification=behavioral)")
	for searcher := 20; searcher < 32; searcher++ {
		if _, err := nodes[searcher].Search("patterns", f, p2p.SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].Refresh(); err != nil {
		t.Fatal(err)
	}
	if snap := honest.Snapshot(); snap.Counter("dht.cache_stores") < 1 || snap.Counter("dht.store_fanout") < 12 {
		t.Fatalf("cache_stores %d, store_fanout %d: the honest cluster sent no caching STORE or too few primary ones",
			snap.Counter("dht.cache_stores"), snap.Counter("dht.store_fanout"))
	}
	if got := refused(honest); got != 0 {
		t.Errorf("an honest cluster counts dht.store_refused = %d, want 0", got)
	}
}

// sharedNet is testNet with one shared metrics registry across all
// nodes, so cluster-wide counters (cache stores on queriers, cache
// hits on holders) can be asserted in one place.
func sharedNet(t *testing.T, n int, cfg Config) ([]*Node, *metrics.Registry) {
	t.Helper()
	net := transport.NewMemNetwork(transport.WithSeed(1))
	reg := metrics.NewRegistry()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(ep, index.NewStore(), cfg)
		nodes[i].SetMetrics(reg)
	}
	for i := 1; i < n; i++ {
		nodes[i].Bootstrap(nodes[0].PeerID())
	}
	return nodes, reg
}

// TestCachingStoreAndHits: with CacheRecords on, a successful search
// plants a cached copy on a lookup-path non-holder (dht.cache_stores),
// repeat searches for the same filter are served from it
// (dht.cache_hits), and the result set stays identical to the
// cache-off answer.
func TestCachingStoreAndHits(t *testing.T) {
	// 64 nodes at k=4: routing tables cover a fraction of the network,
	// so lookups route through non-holders — the nodes a caching STORE
	// lands on. (In a smaller net every queried node is a holder and
	// there is nowhere to cache.)
	nodes, reg := sharedNet(t, 64, Config{K: 4, Alpha: 2, CacheRecords: true})
	for i := 0; i < 12; i++ {
		class := "behavioral"
		if i%2 == 0 {
			class = "creational"
		}
		if err := nodes[i].Publish(doc(i, "patterns", class)); err != nil {
			t.Fatal(err)
		}
	}
	// A run of distinct queriers for one filter: early ones plant
	// cached copies on their lookup paths (not every searcher has a
	// non-holder on its path, but most do), later ones are served from
	// them — and every answer must be the same complete set.
	f := query.MustParse("(classification=behavioral)")
	var first []p2p.Result
	for searcher := 20; searcher < 32; searcher++ {
		rs, err := nodes[searcher].Search("patterns", f, p2p.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 6 {
			t.Fatalf("searcher %d hits = %d, want 6", searcher, len(rs))
		}
		if first == nil {
			first = rs
			continue
		}
		for i := range rs {
			if rs[i].DocID != first[i].DocID || rs[i].Provider != first[i].Provider {
				t.Fatalf("searcher %d answer diverges at %d: %+v vs %+v", searcher, i, rs[i], first[i])
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("dht.cache_stores"); got < 1 {
		t.Fatalf("cache_stores = %d, want >= 1", got)
	}
	if got := snap.Counter("dht.cache_hits"); got < 1 {
		t.Fatalf("cache_hits = %d, want >= 1", got)
	}
}

// TestLimitShortcircuit: a limited FIND_VALUE stops converging once it
// holds limit records and counts the early exit.
func TestLimitShortcircuit(t *testing.T) {
	nodes, reg := sharedNet(t, 24, Config{K: 4, Alpha: 2})
	for i := 0; i < 12; i++ {
		if err := nodes[i].Publish(doc(i, "patterns", "behavioral")); err != nil {
			t.Fatal(err)
		}
	}
	before := reg.Snapshot()
	rs, err := nodes[20].Search("patterns", nil, p2p.SearchOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("limited search hits = %d, want 2", len(rs))
	}
	if got := reg.Snapshot().Delta(before).Counter("dht.lookup_shortcircuits"); got < 1 {
		t.Fatalf("lookup_shortcircuits = %d, want >= 1", got)
	}
}

// TestAdaptiveRefreshSkips: a Refresh right after publishing finds
// every holder set intact and skips the STORE fan-out; once records
// approach half their TTL the republish is forced.
func TestAdaptiveRefreshSkips(t *testing.T) {
	clk := dsim.NewVirtualClock()
	net := transport.NewMemNetwork(transport.WithSeed(1))
	reg := metrics.NewRegistry()
	cfg := Config{K: 3, Alpha: 2, RecordTTL: 10 * time.Second}
	var nodes []*Node
	for i := 0; i < 12; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nd := NewNode(ep, index.NewStore(), cfg)
		nd.SetClock(clk)
		nd.SetMetrics(reg)
		nodes = append(nodes, nd)
	}
	for i := 1; i < len(nodes); i++ {
		nodes[i].Bootstrap(nodes[0].PeerID())
	}
	if err := nodes[4].Publish(doc(9, "patterns", "behavioral")); err != nil {
		t.Fatal(err)
	}
	// No churn, no aging: the community key's holders are intact, so
	// one FIND_NODE to a holder suffices and no STORE is sent.
	before := reg.Snapshot()
	if err := nodes[4].Refresh(); err != nil {
		t.Fatal(err)
	}
	d := reg.Snapshot().Delta(before)
	if d.Counter("dht.republishes_skipped") != 1 {
		t.Fatalf("republishes_skipped = %d, want 1 (the community key)", d.Counter("dht.republishes_skipped"))
	}
	if d.Counter("dht.store_fanout") != 0 {
		t.Fatalf("store_fanout = %d, want 0 on an intact refresh", d.Counter("dht.store_fanout"))
	}
	// Half the TTL later the records are approaching expiry: the same
	// Refresh must now republish unconditionally.
	clk.RunUntil(clk.Now().Add(5 * time.Second))
	before = reg.Snapshot()
	if err := nodes[4].Refresh(); err != nil {
		t.Fatal(err)
	}
	d = reg.Snapshot().Delta(before)
	if d.Counter("dht.republishes_skipped") != 0 {
		t.Fatalf("republishes_skipped = %d after TTL/2, want 0", d.Counter("dht.republishes_skipped"))
	}
	if d.Counter("dht.store_fanout") == 0 {
		t.Fatal("store_fanout = 0 after TTL/2, want a forced republish")
	}
}

// TestRefreshTargetBuckets: the deterministic bucket-refresh targets
// land in exactly the bucket they are derived for.
func TestRefreshTargetBuckets(t *testing.T) {
	for _, seed := range []string{"node-a", "node-b", "node-c"} {
		self := NodeIDFor(transport.PeerID(seed))
		for _, b := range []int{0, 1, 5, 7, 8, 9, 63, 64, 100, 158, 159} {
			target := RefreshTarget(self, b)
			if got := BucketIndex(self, target); got != b {
				t.Fatalf("self %s bucket %d: target lands in bucket %d", seed, b, got)
			}
		}
	}
}
