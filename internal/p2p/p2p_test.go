package p2p

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/transport"
)

func doc(id, community, title string, kv map[string]string) *index.Document {
	attrs := query.Attrs{}
	for k, v := range kv {
		attrs.Add(k, v)
	}
	return &index.Document{
		ID:          index.DocID(id),
		CommunityID: community,
		Title:       title,
		XML:         "<obj><title>" + title + "</title></obj>",
		Attrs:       attrs,
	}
}

// --- centralized protocol ---

type centralFixture struct {
	net     *transport.MemNetwork
	server  *IndexServer
	clients []*CentralizedClient
}

func newCentralFixture(t *testing.T, nClients int) *centralFixture {
	t.Helper()
	net := transport.NewMemNetwork()
	sep, err := net.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	f := &centralFixture{net: net, server: NewIndexServer(sep)}
	for i := 0; i < nClients; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		f.clients = append(f.clients, NewCentralizedClient(ep, "server", index.NewStore()))
	}
	return f
}

func TestCentralizedPublishSearchRetrieve(t *testing.T) {
	f := newCentralFixture(t, 2)
	pub, seeker := f.clients[0], f.clients[1]
	if err := pub.Publish(doc("d1", "patterns", "Observer", map[string]string{"title": "Observer"})); err != nil {
		t.Fatalf("publish: %v", err)
	}
	results, err := seeker.Search("patterns", query.MustParse("(title=Observer)"), SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	r := results[0]
	if r.Provider != pub.PeerID() || r.DocID != "d1" {
		t.Errorf("result = %+v", r)
	}
	got, err := seeker.Retrieve(r.DocID, r.Provider)
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if got.Title != "Observer" || got.XML == "" {
		t.Errorf("doc = %+v", got)
	}
}

func TestCentralizedCommunityScoping(t *testing.T) {
	f := newCentralFixture(t, 1)
	c := f.clients[0]
	c.Publish(doc("d1", "patterns", "Observer", map[string]string{"title": "Observer"}))
	c.Publish(doc("d2", "mp3", "Blue", map[string]string{"title": "Blue"}))
	rs, err := c.Search("mp3", query.MatchAll{}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].DocID != "d2" {
		t.Errorf("mp3 results = %+v", rs)
	}
	all, err := c.Search("", query.MatchAll{}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("all = %d", len(all))
	}
}

func TestCentralizedUnpublish(t *testing.T) {
	f := newCentralFixture(t, 1)
	c := f.clients[0]
	c.Publish(doc("d1", "c", "T", map[string]string{"k": "v"}))
	if f.server.Len() != 1 {
		t.Fatalf("server len = %d", f.server.Len())
	}
	if err := c.Unpublish("d1"); err != nil {
		t.Fatal(err)
	}
	if f.server.Len() != 0 {
		t.Errorf("server len after unpublish = %d", f.server.Len())
	}
	rs, _ := c.Search("c", query.MatchAll{}, SearchOptions{})
	if len(rs) != 0 {
		t.Errorf("results after unpublish = %v", rs)
	}
}

func TestCentralizedSearchLimit(t *testing.T) {
	f := newCentralFixture(t, 1)
	c := f.clients[0]
	for i := 0; i < 10; i++ {
		c.Publish(doc(fmt.Sprintf("d%02d", i), "c", "T", map[string]string{"k": "v"}))
	}
	rs, _ := c.Search("c", query.MustParse("(k=v)"), SearchOptions{Limit: 3})
	if len(rs) != 3 {
		t.Errorf("limit 3 returned %d", len(rs))
	}
}

// --- gnutella protocol ---

type gnutellaFixture struct {
	net   *transport.MemNetwork
	reg   *metrics.Registry
	nodes []*GnutellaNode
}

// newGnutellaLine wires nodes in a line: n0 - n1 - n2 - ... so TTL
// effects are observable.
func newGnutellaLine(t *testing.T, n int) *gnutellaFixture {
	t.Helper()
	reg := metrics.NewRegistry()
	net := transport.NewMemNetwork(transport.WithMetrics(reg))
	f := &gnutellaFixture{net: net, reg: reg}
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("g%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, NewGnutellaNode(ep, index.NewStore()))
	}
	for i := 0; i+1 < n; i++ {
		f.nodes[i].AddNeighbor(f.nodes[i+1].PeerID())
		f.nodes[i+1].AddNeighbor(f.nodes[i].PeerID())
	}
	return f
}

func TestGnutellaFloodSearch(t *testing.T) {
	f := newGnutellaLine(t, 5)
	// Object at the far end of the line.
	f.nodes[4].Publish(doc("d1", "patterns", "Observer", map[string]string{"title": "Observer"}))
	rs, err := f.nodes[0].Search("patterns", query.MustParse("(title=Observer)"), SearchOptions{TTL: 7})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs) != 1 {
		t.Fatalf("results = %+v", rs)
	}
	if rs[0].Provider != f.nodes[4].PeerID() {
		t.Errorf("provider = %s", rs[0].Provider)
	}
	if rs[0].Hops != 4 {
		t.Errorf("hops = %d, want 4", rs[0].Hops)
	}
}

func TestGnutellaTTLHorizon(t *testing.T) {
	f := newGnutellaLine(t, 6)
	f.nodes[5].Publish(doc("far", "c", "Far", map[string]string{"k": "v"}))
	f.nodes[2].Publish(doc("near", "c", "Near", map[string]string{"k": "v"}))
	// TTL 2 reaches nodes 1 and 2 only.
	rs, err := f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].DocID != "near" {
		t.Errorf("TTL 2 results = %+v", rs)
	}
	// TTL 7 reaches everything.
	rs, err = f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{TTL: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Errorf("TTL 7 results = %+v", rs)
	}
}

func TestGnutellaLocalResultsIncluded(t *testing.T) {
	f := newGnutellaLine(t, 2)
	f.nodes[0].Publish(doc("mine", "c", "Mine", map[string]string{"k": "v"}))
	rs, err := f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Provider != f.nodes[0].PeerID() || rs[0].Hops != 0 {
		t.Errorf("local results = %+v", rs)
	}
}

func TestGnutellaDuplicateSuppressionInCycle(t *testing.T) {
	// Ring topology: without duplicate suppression a query would loop.
	reg := metrics.NewRegistry()
	net := transport.NewMemNetwork(transport.WithMetrics(reg))
	var nodes []*GnutellaNode
	const n = 4
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NewGnutellaNode(ep, index.NewStore()))
	}
	for i := 0; i < n; i++ {
		nodes[i].AddNeighbor(nodes[(i+1)%n].PeerID())
		nodes[(i+1)%n].AddNeighbor(nodes[i].PeerID())
	}
	nodes[2].Publish(doc("d", "c", "T", map[string]string{"k": "v"}))
	rs, err := nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{TTL: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The object must be found exactly once despite two paths.
	if len(rs) != 1 {
		t.Errorf("results in ring = %+v", rs)
	}
	// And the message count must be bounded (no infinite loop):
	msgs := reg.Snapshot().Counter("transport.msgs_delivered")
	if msgs > 20 {
		t.Errorf("too many messages in ring: %d", msgs)
	}
}

// TestFloodDuplicatesCounted: every query arrival a node drops as a
// duplicate counts in p2p.flood_duplicates, so on a connected overlay
// the family equals the query arrivals less one first arrival per node
// the flood reached (every node but the origin, whose own GUID makes
// each arrival back at it a duplicate).
func TestFloodDuplicatesCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	net := transport.NewMemNetwork(transport.WithMetrics(reg))
	const n = 8
	nodes := make([]*GnutellaNode, n)
	for i := range nodes {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewGnutellaNode(ep, index.NewStore())
		nodes[i].SetMetrics(reg)
	}
	for i := range nodes { // a ring with chords: many paths to each node
		for _, j := range []int{(i + 1) % n, (i + 3) % n} {
			nodes[i].AddNeighbor(nodes[j].PeerID())
			nodes[j].AddNeighbor(nodes[i].PeerID())
		}
	}
	for q := 0; q < 3; q++ {
		if _, err := nodes[q].Search("c", query.MustParse("(k=v)"), SearchOptions{TTL: n}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	arrivals := snap.Label("transport.msgs_by_type", MsgQuery)
	dups := snap.Label("p2p.flood_duplicates", "gnutella")
	if first := int64(3 * (n - 1)); dups == 0 || dups != arrivals-first {
		t.Errorf("flood_duplicates = %d, want %d query arrivals less %d first arrivals", dups, arrivals, first)
	}
}

func TestGnutellaMessageCostGrowsWithTTL(t *testing.T) {
	f := newGnutellaLine(t, 10)
	base := f.reg.Snapshot()
	_, err := f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	mid := f.reg.Snapshot()
	low := mid.Delta(base).Counter("transport.msgs_delivered")
	if _, err = f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{TTL: 9}); err != nil {
		t.Fatal(err)
	}
	high := f.reg.Snapshot().Delta(mid).Counter("transport.msgs_delivered")
	if high <= low {
		t.Errorf("messages TTL9 (%d) not > TTL2 (%d)", high, low)
	}
}

func TestGnutellaSearchLimit(t *testing.T) {
	f := newGnutellaLine(t, 5)
	for i, n := range f.nodes {
		n.Publish(doc(fmt.Sprintf("d%d", i), "c", "T", map[string]string{"k": "v"}))
	}
	rs, err := f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Errorf("limit 2 = %d results", len(rs))
	}
}

func TestGnutellaNeighborOps(t *testing.T) {
	f := newGnutellaLine(t, 3)
	n := f.nodes[1]
	if got := len(n.Neighbors()); got != 2 {
		t.Errorf("neighbors = %d", got)
	}
	n.RemoveNeighbor(f.nodes[0].PeerID())
	if got := len(n.Neighbors()); got != 1 {
		t.Errorf("after remove = %d", got)
	}
	// Self-neighbor is ignored.
	n.AddNeighbor(n.PeerID())
	if got := len(n.Neighbors()); got != 1 {
		t.Errorf("self neighbor added: %d", got)
	}
}

func TestGnutellaClosedNodeSearchFails(t *testing.T) {
	f := newGnutellaLine(t, 2)
	f.nodes[0].Close()
	if _, err := f.nodes[0].Search("c", query.MatchAll{}, SearchOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
}

func TestGnutellaPartitionedNeighborSkipped(t *testing.T) {
	f := newGnutellaLine(t, 3)
	f.nodes[2].Publish(doc("d", "c", "T", map[string]string{"k": "v"}))
	f.net.Partition(f.nodes[0].PeerID(), f.nodes[1].PeerID())
	rs, err := f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{})
	if err != nil {
		t.Fatalf("search across partition errored: %v", err)
	}
	if len(rs) != 0 {
		t.Errorf("results across partition = %+v", rs)
	}
}

// --- cross-protocol: identical workload, both networks (E8 seed) ---

func TestProtocolIndependenceSameResults(t *testing.T) {
	titles := []string{"Observer", "Visitor", "Composite", "Strategy"}

	runWorkload := func(nets []Network) map[string]int {
		for i, title := range titles {
			d := doc(fmt.Sprintf("d%d", i), "patterns", title, map[string]string{"title": title})
			if err := nets[i%len(nets)].Publish(d); err != nil {
				t.Fatalf("publish: %v", err)
			}
		}
		out := map[string]int{}
		for _, q := range []string{"(title=Observer)", "(title=*o*)", "(*)"} {
			rs, err := nets[0].Search("patterns", query.MustParse(q), SearchOptions{TTL: 7})
			if err != nil {
				t.Fatalf("search %s: %v", q, err)
			}
			out[q] = len(rs)
		}
		return out
	}

	// Centralized network.
	cf := newCentralFixture(t, 3)
	var cnets []Network
	for _, c := range cf.clients {
		cnets = append(cnets, c)
	}
	centralCounts := runWorkload(cnets)

	// Gnutella network (fully connected for equal reach).
	net := transport.NewMemNetwork()
	var gnodes []*GnutellaNode
	for i := 0; i < 3; i++ {
		ep, _ := net.Endpoint(transport.PeerID(fmt.Sprintf("g%d", i)))
		gnodes = append(gnodes, NewGnutellaNode(ep, index.NewStore()))
	}
	for i := range gnodes {
		for j := range gnodes {
			if i != j {
				gnodes[i].AddNeighbor(gnodes[j].PeerID())
			}
		}
	}
	var gnets []Network
	for _, g := range gnodes {
		gnets = append(gnets, g)
	}
	gnutellaCounts := runWorkload(gnets)

	for q, want := range centralCounts {
		if got := gnutellaCounts[q]; got != want {
			t.Errorf("query %s: centralized=%d gnutella=%d", q, want, got)
		}
	}
}

// TestPeerSendZeroAlloc: Peer.Send encodes into borrowed scratch and
// hands it back once the transport is done with it, so sending an
// all-scalar frame over the in-memory network allocates nothing — the
// encode copy Send used to make is gone. Skipped under -race, whose
// sync.Pool drops a quarter of what is put back.
func TestPeerSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var got pingPayload
	dst.SetHandler(func(m transport.Message) { _ = got.DecodeBinary(m.Payload) })
	var p Peer
	p.InitPeer(ep, nil, "test")
	f := &pingPayload{GUID: 7, TTL: 2, Hops: 1}
	send := func() {
		if err := p.Send("b", MsgPing, f, nil); err != nil {
			t.Fatal(err)
		}
	}
	send() // creates the per-type delivery counter
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Fatalf("Peer.Send allocs/msg = %v, want 0", allocs)
	}
}
