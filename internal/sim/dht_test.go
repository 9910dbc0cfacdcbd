package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
)

// TestDHTClusterEndToEnd runs the full U-P2P flow on the structured
// overlay: community discovery through the root community (itself a
// DHT lookup on the root community key), join-by-retrieve, bulk
// publication, and filtered searches with complete recall.
func TestDHTClusterEndToEnd(t *testing.T) {
	c, err := NewCluster(Config{Peers: 32, Protocol: DHT, DHT: dht.Config{K: 8}, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, spec())
	if err != nil {
		t.Fatal(err)
	}
	joined, err := c.DiscoverAndJoinAll("patterns", 7)
	if err != nil {
		t.Fatal(err)
	}
	if joined != 32 {
		t.Fatalf("joined = %d, want 32", joined)
	}
	// The join lookups populated every routing table.
	for i := 0; i < 32; i++ {
		if n := c.dhts[i]; n == nil || n.TableLen() == 0 {
			t.Fatalf("peer %d has no routing state", i)
		}
	}
	objs := corpus.DesignPatterns(40, 21).Objects
	ids, err := c.PublishRoundRobin(comm.ID, objs)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[index.DocID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for _, searcher := range []int{0, 9, 31} {
		rs, err := c.SearchFrom(searcher, comm.ID, query.MustParse("(name=*)"), p2p.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		found := map[index.DocID]bool{}
		for _, r := range rs {
			found[r.DocID] = true
			if r.Hops < 1 {
				t.Errorf("hit carries no hop count: %+v", r)
			}
		}
		for id := range want {
			if !found[id] {
				t.Fatalf("searcher %d missed %s", searcher, id)
			}
		}
	}
	// A filtered search stays consistent with a local ground-truth
	// scan, and retrieval from a reported provider works.
	rs, err := c.SearchFrom(5, comm.ID, query.MustParse("(classification=behavioral)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("filtered search found nothing")
	}
	for _, r := range rs {
		if r.Attrs.Get("classification") != "behavioral" {
			t.Fatalf("filter leaked: %+v", r)
		}
	}
	if _, err := c.Servents[5].Retrieve(rs[0].DocID, rs[0].Provider); err != nil {
		t.Fatalf("retrieve from DHT provider: %v", err)
	}
}

// TestDHTChurnRepair kills a slice of the population (taking record
// replicas with it), then checks that RefreshDHT — bucket repair plus
// republication — restores full recall over the surviving peers'
// documents. Repair must hold on every seed, not on one lucky layout of
// holders and routing tables.
func TestDHTChurnRepair(t *testing.T) {
	for _, seed := range []int64{33, 1, 2, 5, 8, 13, 21, 55} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { dhtChurnRepair(t, seed) })
	}
}

func dhtChurnRepair(t *testing.T, seed int64) {
	const k = 4
	c, err := NewCluster(Config{Peers: 30, Protocol: DHT, DHT: dht.Config{K: k}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallCommunityAll(comm); err != nil {
		t.Fatal(err)
	}
	objs := corpus.DesignPatterns(30, seed).Objects
	ids, err := c.PublishRoundRobin(comm.ID, objs)
	if err != nil {
		t.Fatal(err)
	}
	holders := make(map[index.DocID]int, len(ids))
	for i, id := range ids {
		// PublishRoundRobin places object i on member i mod N; every
		// peer joined, so the member list is the servent list.
		holders[id] = i % 30
	}
	for _, victim := range []int{2, 7, 11, 19, 23, 28} {
		c.KillPeer(victim)
	}
	dead := map[int]bool{2: true, 7: true, 11: true, 19: true, 23: true, 28: true}
	if c.dhts[2] != nil {
		t.Fatal("killed peer still exposes a DHT node")
	}
	// Churn arrivals join mid-run and publish too.
	ni, err := c.AddPeer()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Servents[ni].AdoptCommunity(comm); err != nil {
		t.Fatal(err)
	}
	extra := corpus.DesignPatterns(45, seed+1).Objects
	extraID, err := c.Servents[ni].Publish(comm.ID, extra[44].Doc.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Repair: liveness checks evict dead contacts, republication
	// re-replicates records whose holders died.
	refreshed, err := c.RefreshDHT()
	if err != nil {
		t.Fatal(err)
	}
	if refreshed != 25 {
		t.Fatalf("refreshed = %d, want 25 live peers", refreshed)
	}
	rs, err := c.SearchFrom(0, comm.ID, query.MustParse("(name=*)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[index.DocID]bool{}
	for _, r := range rs {
		found[r.DocID] = true
	}
	for id, holder := range holders {
		if dead[holder] {
			continue // its only holder died; the object is legitimately gone
		}
		if !found[id] {
			t.Fatalf("doc %s (live holder %d) not found after repair", id, holder)
		}
	}
	if !found[extraID] {
		t.Fatal("arrival's publication not found")
	}
	// Placement (Kademlia): every live provider's record sits on at least
	// one of the k closest live nodes to the community key.
	key := dht.KeyForCommunity(comm.ID)
	var live []*dht.Node
	for _, n := range c.dhts {
		if n != nil {
			live = append(live, n)
		}
	}
	slices.SortFunc(live, func(a, b *dht.Node) int {
		return dht.CompareDistance(dht.NodeIDFor(a.PeerID()), dht.NodeIDFor(b.PeerID()), key)
	})
	closest := live[:k]
	placed := func(id index.DocID, provider *dht.Node) {
		t.Helper()
		for _, n := range closest {
			if n.Holds(comm.ID, id, provider.PeerID()) {
				return
			}
		}
		t.Fatalf("doc %s of live provider %s is on none of the %d closest live nodes", id, provider.PeerID(), k)
	}
	for id, holder := range holders {
		if !dead[holder] {
			placed(id, c.dhts[holder])
		}
	}
	placed(extraID, c.dhts[ni])
}
