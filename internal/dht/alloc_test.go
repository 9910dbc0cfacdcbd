package dht

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// patternDocs turns the design-pattern corpus into documents of
// community "patterns" carrying the attributes the pattern schema marks
// searchable — what a servent's indexer would extract.
func patternDocs(n int) []*index.Document {
	docs := make([]*index.Document, n)
	for i, o := range corpus.DesignPatterns(n, 1).Objects {
		attrs := query.Attrs{}
		for _, field := range []string{"name", "classification", "intent", "keywords", "applicability", "participants"} {
			for _, el := range o.Doc.ChildrenNamed(field) {
				attrs.Add(field, strings.TrimSpace(el.Text()))
			}
		}
		docs[i] = &index.Document{
			ID:          index.DocID(fmt.Sprintf("sha1-%036d", i)),
			CommunityID: "patterns",
			Title:       attrs.Get("name"),
			Attrs:       attrs,
		}
	}
	return docs
}

func patternRecords(n int, provider transport.PeerID) []p2p.Result {
	return recordsFor(index.NewEntries(patternDocs(n)), provider)
}

func recordFor(doc *index.Document, provider transport.PeerID) p2p.Result {
	return recordsFor([]*index.Entry{index.NewEntry(doc)}, provider)[0]
}

// collected attaches a flag to the allocation s points into and returns
// it: set once the garbage collector has freed that allocation.
func collected(s string) *atomic.Bool {
	freed := new(atomic.Bool)
	runtime.AddCleanup(unsafe.StringData(s), func(f *atomic.Bool) { f.Store(true) }, freed)
	return freed
}

// gcFrees runs one collection and reports whether every flag is set
// soon after it: one, because sync.Pool lets go of what it holds only
// over two, so what a pooled scratch still referenced would survive.
func gcFrees(flags []*atomic.Bool) bool {
	runtime.GC()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if !slices.ContainsFunc(flags, func(f *atomic.Bool) bool { return !f.Load() }) {
			return true
		}
	}
	return false
}

// TestFindValueReplyDecodeAllocs: a 64-record FIND_VALUE reply decodes
// onto one shared string, every record's strings and attribute set
// substrings of it: a fixed handful of allocations, none per record,
// field or value.
func TestFindValueReplyDecodeAllocs(t *testing.T) {
	recs := patternRecords(64, "peer007")
	reply := findValueReplyPayload{ReqID: 9, Records: recs, Digest: setDigest{Count: 64, Sum: 1},
		Peers: []transport.PeerID{"peer001", "peer002", "peer003", "peer004", "peer005", "peer006", "peer007", "peer008"}}
	data := reply.AppendBinary(nil)
	var got findValueReplyPayload
	allocs := testing.AllocsPerRun(20, func() {
		got = findValueReplyPayload{}
		if err := got.DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	if len(got.Records) != 64 || len(got.Peers) != 8 || !reflect.DeepEqual(got.Records, recs) {
		t.Fatalf("decoded %d records, %d peers", len(got.Records), len(got.Peers))
	}
	// The shared string and the record and peer slices.
	t.Logf("%v allocations for 64 records in %d bytes", allocs, len(data))
	if allocs > 3 {
		t.Errorf("decoding allocates %v times, want at most 3", allocs)
	}
}

// TestStoreDecodeCopiesFields: a STORE's records go into the record
// store for a TTL, so each record is a copy of its own, its attributes
// apart from its DocID — keeping one, or only the DocID the record
// store keys it by, does not keep its neighbours (or the frame) alive.
func TestStoreDecodeCopiesFields(t *testing.T) {
	store := storePayload{Key: KeyForCommunity("patterns"), Records: patternRecords(8, "peer007")}
	data := store.AppendBinary(nil)
	var kept []string
	var flags []*atomic.Bool
	func() {
		var got storePayload
		if err := got.DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
		for _, rec := range got.Records {
			kept = append(kept, string(rec.DocID))
			flags = append(flags, collected(rec.Attrs.Get("intent"))) // long: never the tiny allocator's
		}
	}()
	if !gcFrees(flags) {
		t.Error("a STORE record's intent outlived the record: its DocID shares the allocation")
	}
	runtime.KeepAlive(kept)
}

// TestFindValueReplySharesOneString is the other side: a reply's fields
// are cut from one string, which lives as long as any of them.
func TestFindValueReplySharesOneString(t *testing.T) {
	reply := findValueReplyPayload{Records: patternRecords(8, "peer007"), Peers: []transport.PeerID{"peer001"}}
	data := reply.AppendBinary(nil)
	var kept transport.PeerID
	var flags []*atomic.Bool
	func() {
		var got findValueReplyPayload
		if err := got.DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
		kept = got.Peers[0]
		flags = append(flags, collected(got.Records[0].Attrs.Get("intent")))
	}()
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	if flags[0].Load() {
		t.Error("the frame was freed while one of its peers was in use")
	}
	runtime.KeepAlive(kept)
	if kept = ""; !gcFrees(flags) {
		t.Error("the frame outlived everything cut from it")
	}
}

// TestLearnedContactsOwnTheirPeerID: the peers a lookup takes from a
// reply into its shortlist are copies, not slices of the reply's frame.
func TestLearnedContactsOwnTheirPeerID(t *testing.T) {
	frame := (&findNodeReplyPayload{ReqID: 3, Peers: []transport.PeerID{"peer001", "self", "peer002", "peer003"}}).AppendBinary(nil)
	var reply findNodeReplyPayload
	if err := reply.DecodeBinary(frame); err != nil {
		t.Fatal(err)
	}
	sc := lookupScratchPool.Get().(*lookupScratch)
	defer func() { clear(sc.known); lookupScratchPool.Put(sc) }()
	sc.known["peer002"] = true
	short := sc.learn(nil, reply.Peers, "self")
	if len(short) != 2 || short[0].Peer != "peer001" || short[1].Peer != "peer003" {
		t.Fatalf("learned %+v", short)
	}
	for _, c := range short {
		for _, p := range reply.Peers {
			if unsafe.StringData(string(c.Peer)) == unsafe.StringData(string(p)) {
				t.Errorf("contact %s is a slice of the reply frame", c.Peer)
			}
		}
		if c.ID != NodeIDFor(c.Peer) {
			t.Errorf("contact %s carries the wrong ID", c.Peer)
		}
	}
	if again := sc.learn(short, reply.Peers, "self"); len(again) != 2 {
		t.Errorf("known peers were learned twice: %+v", again)
	}
}

// TestSearchLeavesReplyFramesCollectable: once a search's results are
// dropped, one collection frees every reply frame they were cut from —
// no record store, routing table, announce memory, cached set on another
// node or pooled lookup scratch holds a string of theirs.
func TestSearchLeavesReplyFramesCollectable(t *testing.T) {
	_, nodes := testNet(t, 32, Config{K: 4, Alpha: 2, CacheRecords: true})
	for i, d := range patternDocs(48) {
		if err := nodes[i%8].Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	key := KeyForCommunity("patterns")
	var searcher *Node
	for _, nd := range nodes[8:] {
		if own, _, _ := nd.records.get(new([]p2p.Result), key, nd.Clock().Now(), &valueQuery{communityID: "patterns", filter: "(*)"}, setDigest{}); len(own) == 0 {
			searcher = nd
			break
		}
	}
	if searcher == nil {
		t.Fatal("every node holds a slice of the key")
	}
	var flags []*atomic.Bool
	for _, src := range []string{"(classification=behavioral)", "(name=*)", "(name=*)"} { // the repeat meets the cached set
		rs, err := searcher.Search("patterns", query.MustParse(src), p2p.SearchOptions{})
		if err != nil || len(rs) == 0 {
			t.Fatalf("%s: %d results, %v", src, len(rs), err)
		}
		for _, r := range rs {
			flags = append(flags, collected(r.Attrs.Get("intent")))
		}
	}
	// What the lookups learned goes on living: announce on it.
	if err := searcher.Publish(patternDocs(49)[48]); err != nil {
		t.Fatal(err)
	}
	if !gcFrees(flags) {
		t.Error("a reply frame outlived the search's results: something long-lived holds one of its strings")
	}
	runtime.KeepAlive(nodes)
}

// countingFilter counts the records it is asked about.
type countingFilter struct {
	query.Filter
	calls int
}

func (f *countingFilter) Match(a query.AttrSet) bool { f.calls++; return f.Filter.Match(a) }

// TestGetMatchesEachRecordOnce: whether a holder ships its set, answers
// with the digest alone, or was asked for no more than the digest, one
// request evaluates the filter once per record held.
func TestGetMatchesEachRecordOnce(t *testing.T) {
	rs := newRecordStore(time.Minute, 0)
	key := KeyForCommunity("patterns")
	t0 := time.Unix(1000, 0)
	rs.put(key, patternRecords(60, "peerA"), t0)
	f := &countingFilter{Filter: query.MustParse("(classification=behavioral)")}
	shipped, dig, _ := rs.get(new([]p2p.Result), key, t0, &valueQuery{communityID: "patterns", filter: f.String(), match: f}, setDigest{})
	if f.calls != 60 || len(shipped) == 0 || int(dig.Count) != len(shipped) {
		t.Fatalf("shipping: %d Match calls for 60 records, %d shipped, digest %+v", f.calls, len(shipped), dig)
	}
	for i := 1; i < len(shipped); i++ {
		if shipped[i-1].DocID >= shipped[i].DocID {
			t.Fatalf("shipped set is not sorted at %d", i)
		}
	}
	for name, into := range map[string]*[]p2p.Result{"have matches": new([]p2p.Result), "digest only": nil} {
		f.calls = 0
		if recs, again, _ := rs.get(into, key, t0, &valueQuery{communityID: "patterns", filter: f.String(), match: f}, dig); recs != nil || again != dig || f.calls != 60 {
			t.Errorf("%s: %d Match calls for 60 records, %d shipped, digest %+v", name, f.calls, len(recs), again)
		}
	}
	f.calls = 0
	if recs, limited, _ := rs.get(new([]p2p.Result), key, t0, &valueQuery{communityID: "patterns", filter: f.String(), match: f, limit: 3}, setDigest{}); len(recs) != 3 || limited != dig || f.calls != 60 {
		t.Errorf("limit 3: %d Match calls, %d shipped, digest %+v", f.calls, len(recs), limited)
	}
}

// TestObserveAllocatesNothing: every inbound message derives its
// sender's ID and sorts it into the table — on the stack.
func TestObserveAllocatesNothing(t *testing.T) {
	table := NewTable(NodeIDFor("self"), 4)
	for i := 0; i < 64; i++ {
		table.Observe(transport.PeerID(fmt.Sprintf("peer%03d", i)))
	}
	if allocs := testing.AllocsPerRun(100, func() { table.Observe("peer017"); table.Observe("127.0.0.1:54321") }); allocs != 0 {
		t.Errorf("Observe allocates %v, want 0", allocs)
	}
	// A name longer than the stack buffer hashes to the same ID as ever.
	long := strings.Repeat("community/", 40)
	sum := sha256.Sum256([]byte("community\x00" + long))
	if got := KeyForCommunity(long); string(got[:]) != string(sum[:IDBytes]) {
		t.Errorf("KeyForCommunity(long) = %s", got)
	}
}

// searchCluster is the ruler's tcp-dht-search workload without the
// sockets: 24 nodes (K 8, α 3) on one MemNetwork, 240 design-pattern
// records published round-robin, and the ruler's six filters.
func searchCluster(tb testing.TB) ([]*Node, []query.Filter) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	return newSearchCluster(tb, func(i int) (transport.Endpoint, error) {
		return net.Endpoint(transport.PeerID(fmt.Sprintf("127.0.0.1:%d", 7000+i)))
	})
}

// tcpSearchCluster is searchCluster on loopback TCP: the ruler's
// tcp-dht-search deployment without its servents and its oracle.
func tcpSearchCluster(tb testing.TB) ([]*Node, []query.Filter) {
	return newSearchCluster(tb, func(int) (transport.Endpoint, error) {
		return transport.ListenTCP("127.0.0.1:0")
	})
}

// newSearchCluster builds searchCluster's network on the endpoints
// listen makes, and searches it until every record is found: STOREs are
// fire-and-forget, so on TCP a publish lands a little after it returns.
func newSearchCluster(tb testing.TB, listen func(i int) (transport.Endpoint, error)) ([]*Node, []query.Filter) {
	nodes := make([]*Node, 24)
	for i := range nodes {
		ep, err := listen(i)
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = NewNode(ep, index.NewStore(), Config{K: 8, Alpha: 3})
		tb.Cleanup(func() { nodes[i].Close() })
	}
	for _, nd := range nodes[1:] {
		nd.Bootstrap(nodes[0].PeerID())
	}
	for i, d := range patternDocs(240) {
		if err := nodes[i%len(nodes)].Publish(d); err != nil {
			tb.Fatal(err)
		}
	}
	var filters []query.Filter
	for _, src := range []string{
		"(classification=behavioral)", "(classification=creational)", "(classification=structural)",
		"(keywords=wrapper)", "(&(classification=behavioral)(keywords=undo))", "(name=*)",
	} {
		filters = append(filters, query.MustParse(src))
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		rs, err := nodes[5].Search("patterns", filters[5], p2p.SearchOptions{})
		if err == nil && len(rs) == 240 {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatalf("warm-up search: %d of 240 records, %v", len(rs), err)
		}
	}
	return nodes, filters
}

// TestSearchClusterAllocs: one search on searchCluster's network, from
// every node in turn over the six filters, allocates at most 60 times:
// a search's ~80 records a reply cost their frame a few allocations, not
// a map each (which took it to 309), and its request and reply frames
// come from pooled scratch (~53 measured; 73 when each was its own).
func TestSearchClusterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	nodes, filters := searchCluster(t)
	i := 0
	allocs := testing.AllocsPerRun(48, func() {
		if _, err := nodes[i%len(nodes)].Search("patterns", filters[i%len(filters)], p2p.SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%v allocations per search", allocs)
	if allocs > 60 {
		t.Errorf("a search allocates %v times, want at most 60", allocs)
	}
}

// TestFindNodeLookupAllocs: a FIND_NODE lookup on searchCluster's
// network, from every node in turn, allocates at most 28 times: what
// its replies' content needs, each reply's decoded struct, peer list
// and string, and a copy of each peer the lookup learns (~24 measured).
// Its requests, the holders' replies and the contact list no caller
// reads allocate nothing (44 when each was its own).
func TestFindNodeLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	nodes, _ := searchCluster(t)
	target := KeyForCommunity("patterns")
	i := 0
	allocs := testing.AllocsPerRun(48, func() {
		nodes[i%len(nodes)].lookup(trace.Context{}, target, nil, false)
		i++
	})
	t.Logf("%v allocations per lookup", allocs)
	if allocs > 28 {
		t.Errorf("a FIND_NODE lookup allocates %v times, want at most 28", allocs)
	}
}

// BenchmarkDHTSearchCluster times searches on searchCluster's network,
// from every node in turn. Its allocs/op is what `make alloc-profile
// PKG=./internal/dht BENCH=DHTSearchCluster` breaks down by call site.
func BenchmarkDHTSearchCluster(b *testing.B) {
	benchmarkSearches(b, searchCluster)
}

// BenchmarkDHTSearchTCP is BenchmarkDHTSearchCluster on loopback TCP:
// `make alloc-profile PKG=./internal/dht BENCH=DHTSearchTCP` attributes
// the TCP search path's allocations — reader, timers, frames — without
// the ruler's servents and oracle.
func BenchmarkDHTSearchTCP(b *testing.B) {
	benchmarkSearches(b, tcpSearchCluster)
}

func benchmarkSearches(b *testing.B, cluster func(testing.TB) ([]*Node, []query.Filter)) {
	nodes, filters := cluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%len(nodes)].Search("patterns", filters[i%len(filters)], p2p.SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
