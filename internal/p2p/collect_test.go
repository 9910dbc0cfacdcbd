package p2p

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// tcpGnutella is a Gnutella node on loopback TCP, closed when the test
// ends.
func tcpGnutella(t *testing.T) *GnutellaNode {
	t.Helper()
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGnutellaNode(ep, index.NewStore())
	t.Cleanup(func() { g.Close() })
	return g
}

// TestDiscoverOverTCP: on an asynchronous transport Discover waits for
// the pongs its ping floods for, as a search waits for its hits. From
// one end of a line of four nodes on loopback TCP, Discover(3) links
// the two peers beyond its neighbor, as it does on MemNetwork. A node
// with no neighbor floods to no one, so its Discover and Search return
// at once rather than at DefaultTimeout.
func TestDiscoverOverTCP(t *testing.T) {
	var line [4]*GnutellaNode
	for i := range line {
		line[i] = tcpGnutella(t)
	}
	for i := 1; i < len(line); i++ {
		line[i-1].AddNeighbor(line[i].PeerID())
		line[i].AddNeighbor(line[i-1].PeerID())
	}
	added := line[0].Discover(3)
	slices.Sort(added)
	want := []transport.PeerID{line[2].PeerID(), line[3].PeerID()}
	slices.Sort(want)
	if !slices.Equal(added, want) {
		t.Errorf("Discover(3) linked %v, want the two peers beyond the neighbor %v", added, want)
	}
	if got := len(line[0].Neighbors()); got != 3 {
		t.Errorf("neighbors after discover = %d, want 3", got)
	}

	alone := tcpGnutella(t)
	start := time.Now()
	if added := alone.Discover(3); len(added) != 0 {
		t.Errorf("a node with no neighbor discovered %v", added)
	}
	if rs, err := alone.Search("c", query.MatchAll{}, SearchOptions{}); err != nil || len(rs) != 0 {
		t.Errorf("a node with no neighbor found %+v, %v", rs, err)
	}
	if took := time.Since(start); took >= DefaultTimeout/4 {
		t.Errorf("Discover and Search with no neighbor took %v; they flood to no one and should not wait", took)
	}
}

// TestLateHitNotMisdelivered is TestLateReplyNotMisdelivered's flood
// form, over loopback TCP. A neighbor holds search 1's query until
// search 1 has timed out and search 2 has started on the same node, and
// so on the slot search 1 gave up, then answers both. Search 2 gets only
// its own hit; search 1's late hit is neither collected nor relayed;
// and no slot stays in use.
func TestLateHitNotMisdelivered(t *testing.T) {
	g := tcpGnutella(t)
	nb, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nb.Close() })
	answer := func(guid uint64, id index.DocID) {
		hit := codec.Encode(&queryHitPayload{GUID: guid, Results: []Result{{DocID: id, Provider: nb.ID(), CommunityID: "c", Hops: 1}}})
		if err := nb.Send(transport.Message{To: g.PeerID(), Type: MsgQueryHit, Payload: hit}); err != nil {
			t.Error(err)
		}
	}
	var guids []uint64 // written by the one reader of g's connection
	var back atomic.Int64
	nb.SetHandler(func(m transport.Message) {
		if m.Type != MsgQuery {
			back.Add(1)
			return
		}
		guid, _ := codec.PeekUint(m.Payload)
		switch guids = append(guids, guid); len(guids) {
		case 1: // search 1's query: held
		case 2: // search 2 has started, so search 1 has ended
			answer(guids[0], "late")
			answer(guid, "second")
		default:
			answer(guid, "third")
		}
	})
	g.AddNeighbor(nb.ID())

	if rs, err := g.Search("c", query.MatchAll{}, SearchOptions{Timeout: 20 * time.Millisecond}); err != nil || len(rs) != 0 {
		t.Fatalf("search 1: %+v, %v; want nothing before its timeout", rs, err)
	}
	opts := SearchOptions{Limit: 1, Timeout: 5 * time.Second}
	rs, err := g.Search("c", query.MatchAll{}, opts)
	if err != nil || len(rs) != 1 || rs[0].DocID != "second" {
		t.Fatalf("search 2: %+v, %v; want its own hit only", rs, err)
	}
	// The late hit reached g ahead of search 2's on the neighbor's one
	// connection, and a relay of it would reach the neighbor ahead of
	// search 3's query on g's.
	if rs, err := g.Search("c", query.MatchAll{}, opts); err != nil || len(rs) != 1 || rs[0].DocID != "third" {
		t.Fatalf("search 3: %+v, %v; want its own hit only", rs, err)
	}
	if n := back.Load(); n != 0 {
		t.Errorf("the neighbor got %d frames back, want none: the late hit is dropped, not relayed", n)
	}
	if n := g.PendingRequests(); n != 0 {
		t.Errorf("%d slots still in use", n)
	}
	if n := len(g.pending.slots); n != 1 {
		t.Errorf("%d slots for one search at a time, want 1", n)
	}
}
