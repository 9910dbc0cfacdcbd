package p2p

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/transport"
)

// ftFixture: S super-peers in a ring, L leaves per super-peer.
type ftFixture struct {
	net    *transport.MemNetwork
	reg    *metrics.Registry
	supers []*SuperPeer
	leaves []*FastTrackLeaf
}

func newFTFixture(t *testing.T, superN, leavesPer int) *ftFixture {
	t.Helper()
	reg := metrics.NewRegistry()
	net := transport.NewMemNetwork(transport.WithMetrics(reg))
	f := &ftFixture{net: net, reg: reg}
	for i := 0; i < superN; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("super%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		f.supers = append(f.supers, NewSuperPeer(ep))
	}
	for i := 0; i < superN; i++ {
		f.supers[i].AddNeighbor(f.supers[(i+1)%superN].PeerID())
		f.supers[(i+1)%superN].AddNeighbor(f.supers[i].PeerID())
	}
	for i := 0; i < superN*leavesPer; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("leaf%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		super := f.supers[i%superN]
		f.leaves = append(f.leaves, NewFastTrackLeaf(ep, super.PeerID(), index.NewStore()))
	}
	return f
}

func TestFastTrackSearchAcrossSuperPeers(t *testing.T) {
	f := newFTFixture(t, 3, 2)
	// Leaf 0 is under super0; leaf 5 under super2.
	if err := f.leaves[5].Publish(doc("d1", "c", "Observer", map[string]string{"title": "Observer"})); err != nil {
		t.Fatal(err)
	}
	rs, err := f.leaves[0].Search("c", query.MustParse("(title=Observer)"), SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs) != 1 {
		t.Fatalf("results = %+v", rs)
	}
	if rs[0].Provider != f.leaves[5].PeerID() {
		t.Errorf("provider = %s", rs[0].Provider)
	}
	// Retrieval is direct leaf-to-leaf.
	got, err := f.leaves[0].Retrieve(rs[0].DocID, rs[0].Provider)
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if got.Title != "Observer" {
		t.Errorf("doc = %+v", got)
	}
}

func TestFastTrackLocalSuperPeerAnswers(t *testing.T) {
	f := newFTFixture(t, 2, 2)
	// Two leaves on the same super-peer.
	f.leaves[0].Publish(doc("a", "c", "A", map[string]string{"k": "v"}))
	f.leaves[2].Publish(doc("b", "c", "B", map[string]string{"k": "v"}))
	rs, err := f.leaves[0].Search("c", query.MustParse("(k=v)"), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Errorf("results = %+v", rs)
	}
}

func TestFastTrackFloodBoundedToSuperOverlay(t *testing.T) {
	f := newFTFixture(t, 4, 4) // 4 supers, 16 leaves
	f.leaves[0].Publish(doc("d", "c", "T", map[string]string{"k": "v"}))
	before := f.reg.Snapshot()
	if _, err := f.leaves[1].Search("c", query.MustParse("(k=v)"), SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	msgs := f.reg.Snapshot().Delta(before).Counter("transport.msgs_delivered")
	// Query flooding happens only among the 4 super-peers; with 16
	// leaves a full Gnutella flood would be far larger. Search round
	// trip (2) + ring flood (<= 2*4 queries + hits).
	if msgs > 16 {
		t.Errorf("messages = %d, super-peer flood should be small", msgs)
	}
}

func TestFastTrackDuplicateSuppression(t *testing.T) {
	// Ring of supers: results must not duplicate despite two paths.
	f := newFTFixture(t, 4, 1)
	f.leaves[2].Publish(doc("d", "c", "T", map[string]string{"k": "v"}))
	rs, err := f.leaves[0].Search("c", query.MustParse("(k=v)"), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Errorf("results = %+v", rs)
	}
}

// TestFastTrackOverTCPWaitsForTheFlood: over sockets a super-peer's
// flood comes back after the leaf's search frame has been handled, so
// the super-peer must hold its answer for the other super-peers' hits —
// until the search's limit is met, or leafSearchWait.
func TestFastTrackOverTCPWaitsForTheFlood(t *testing.T) {
	listen := func() *transport.TCPNode {
		n, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	var supers []*SuperPeer
	var leaves []*FastTrackLeaf
	for i := 0; i < 2; i++ {
		sp := NewSuperPeer(listen())
		defer sp.Close()
		supers = append(supers, sp)
	}
	supers[0].AddNeighbor(supers[1].PeerID())
	supers[1].AddNeighbor(supers[0].PeerID())
	for i, sp := range supers {
		leaf := NewFastTrackLeaf(listen(), sp.PeerID(), index.NewStore())
		defer leaf.Close()
		leaves = append(leaves, leaf)
		name := fmt.Sprintf("obj%d", i)
		if err := leaf.Publish(doc(name, "c", name, map[string]string{"name": name})); err != nil {
			t.Fatal(err)
		}
	}
	// Registration is asynchronous: wait until both super-peers hold
	// their leaf's object.
	for deadline := time.Now().Add(5 * time.Second); supers[0].Len() < 1 || supers[1].Len() < 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("registrations never reached the super-peers")
		}
	}

	rs, err := leaves[0].Search("c", query.MatchAll{}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Provider != leaves[0].PeerID() || rs[1].Provider != leaves[1].PeerID() {
		t.Errorf("search from leaf 0 = %+v, want its own super-peer's object, then the other's", rs)
	}

	start := time.Now()
	rs, err = leaves[0].Search("c", query.MustParse("(name=obj1)"), SearchOptions{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Provider != leaves[1].PeerID() {
		t.Errorf("limited search from leaf 0 = %+v, want the other super-peer's object", rs)
	}
	if took := time.Since(start); took >= leafSearchWait {
		t.Errorf("a search whose limit the flood met took %v, the whole wait", took)
	}
}
