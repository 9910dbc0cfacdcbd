package sim

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// These are the socket-truth runs (make tcp-nightly, under -race in CI
// on every push): the E14 churn scenarios (its gnutella and dht rows)
// scaled down and replayed over real TCP sockets instead of the
// in-memory transport. The deterministic sim
// proves protocol logic; this proves the same nodes survive real
// framing, dialing, concurrent read loops, and dead-peer errors.
// Gated behind UP2P_TCP_NIGHTLY=1: real sockets and real timeouts
// have no place in the tier-1 suite.

func tcpDoc(i int) *index.Document {
	return &index.Document{
		ID:          index.DocID(fmt.Sprintf("doc%03d", i)),
		CommunityID: "tcp",
		Title:       fmt.Sprintf("doc %d", i),
		XML:         "<doc/>",
		Attrs:       query.Attrs{"name": {fmt.Sprintf("doc%03d", i)}},
	}
}

// TestTCPNightlyGnutella is E14's gnutella row scaled down over sockets: a flooding
// overlay of real TCP nodes, full-recall search, then a churn event
// (two peers die mid-run) that the flood must route around.
func TestTCPNightlyGnutella(t *testing.T) {
	if os.Getenv("UP2P_TCP_NIGHTLY") == "" {
		t.Skip("set UP2P_TCP_NIGHTLY=1 to run the TCP nightly suite")
	}
	const n = 10
	eps := make([]*transport.TCPNode, n)
	nodes := make([]*p2p.GnutellaNode, n)
	for i := range eps {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
		nodes[i] = p2p.NewGnutellaNode(ep, index.NewStore())
	}
	// Ring plus skip-2 chords: stays connected after any two failures.
	for i := range nodes {
		for _, j := range []int{(i + 1) % n, (i + 2) % n} {
			nodes[i].AddNeighbor(eps[j].ID())
			nodes[j].AddNeighbor(eps[i].ID())
		}
	}
	for i := range nodes {
		if err := nodes[i].Publish(tcpDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	search := func() int {
		rs, err := nodes[0].Search("tcp", query.MustParse("(name=*)"),
			p2p.SearchOptions{TTL: 7, Timeout: 3 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return len(rs)
	}
	if got := search(); got != n {
		t.Fatalf("pre-churn recall: %d/%d results", got, n)
	}
	// Churn: two non-origin peers die; their documents go with them.
	for _, i := range []int{4, 7} {
		nodes[i].Close()
	}
	if got := search(); got != n-2 {
		t.Fatalf("post-churn recall: %d/%d results", got, n-2)
	}
}

// TestTCPNightlyDHT is E14's dht row scaled down over sockets: a Kademlia
// overlay of real TCP nodes — bootstrap joins, replicated publishes,
// full-recall lookups, then churn repaired by a refresh round.
func TestTCPNightlyDHT(t *testing.T) {
	if os.Getenv("UP2P_TCP_NIGHTLY") == "" {
		t.Skip("set UP2P_TCP_NIGHTLY=1 to run the TCP nightly suite")
	}
	const n = 12
	eps := make([]*transport.TCPNode, n)
	nodes := make([]*dht.Node, n)
	cfg := dht.Config{K: 8, RPCTimeout: 2 * time.Second}
	for i := range eps {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
		nodes[i] = dht.NewNode(ep, index.NewStore(), cfg)
	}
	for i := 1; i < n; i++ {
		nodes[i].Bootstrap(eps[0].ID())
	}
	for i := range nodes {
		if err := nodes[i].Publish(tcpDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	search := func(from int) int {
		rs, err := nodes[from].Search("tcp", query.MustParse("(name=*)"), p2p.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return len(rs)
	}
	if got := search(1); got != n {
		t.Fatalf("pre-churn recall: %d/%d results", got, n)
	}
	// Churn: two peers die, taking their replicas and their own
	// documents; a refresh round on the survivors re-replicates what
	// remains onto the new closest-k sets.
	dead := map[int]bool{5: true, 9: true}
	for i := range dead {
		nodes[i].Close()
	}
	for i := range nodes {
		if dead[i] {
			continue
		}
		if err := nodes[i].Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	want := n - len(dead)
	if got := search(1); got < want {
		t.Fatalf("post-refresh recall: %d/%d results", got, want)
	}
}
