package sim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// TestGnutellaLossyNetwork: with message loss, searches degrade to a
// subset of results but never error or hang — datagram semantics.
func TestGnutellaLossyNetwork(t *testing.T) {
	c, err := NewCluster(Config{Peers: 10, Protocol: Gnutella, Degree: 3, Seed: 13, DropRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, spec())
	if err != nil {
		t.Fatal(err)
	}
	// Joining may partially fail under loss; require at least the
	// creator.
	joined, _ := c.DiscoverAndJoinAll("patterns", 8)
	if joined < 1 {
		t.Fatalf("joined = %d", joined)
	}
	objs := corpus.DesignPatterns(10, 13).Objects
	published := 0
	for _, o := range objs {
		if _, err := c.Servents[0].Publish(comm.ID, o.Doc.Clone(), nil); err == nil {
			published++
		}
	}
	if published != 10 {
		t.Fatalf("published = %d (gnutella publish is local, must not fail)", published)
	}
	rs, err := c.SearchFrom(0, comm.ID, query.MustParse("(name=*)"), p2p.SearchOptions{TTL: 7})
	if err != nil {
		t.Fatalf("lossy search errored: %v", err)
	}
	// Local results at minimum.
	if len(rs) < 10 {
		t.Errorf("own objects missing under loss: %d", len(rs))
	}
}

// TestCentralizedLatencyAccounting: the virtual latency model sums per
// hop, letting experiments report simulated time without sleeping.
func TestCentralizedLatencyAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	net := transport.NewMemNetwork(transport.WithMetrics(reg), transport.WithLatencyModel(func(transport.PeerID, transport.PeerID) time.Duration { return 10 * time.Millisecond }))
	sep, err := net.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	p2p.NewIndexServer(sep)
	ep, err := net.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	st := index.NewStore()
	client := p2p.NewCentralizedClient(ep, "server", st)
	sv, err := core.NewServent(client, st)
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	if _, err := sv.Search(core.RootCommunityID, query.MatchAll{}, p2p.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	simLat := reg.Snapshot().Delta(before).Counter("transport.sim_latency_ns")
	// One search = request + reply = 2 hops = 20ms simulated.
	if simLat != int64(20*time.Millisecond) {
		t.Errorf("simulated latency = %v", time.Duration(simLat))
	}
}

// TestPropertyPublishSearchRoundTrip: any subset of the corpus
// published anywhere in the cluster is found exactly once by a
// MatchAll search from any peer.
func TestPropertyPublishSearchRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	objs := corpus.DesignPatterns(23, 3).Objects
	f := func(nPub, searcher uint8) bool {
		c, err := NewCluster(Config{Peers: 5, Protocol: Gnutella, Degree: 3, Seed: 17})
		if err != nil {
			return false
		}
		comm, err := c.SeedCommunity(0, spec())
		if err != nil {
			return false
		}
		if _, err := c.DiscoverAndJoinAll("patterns", 7); err != nil {
			return false
		}
		count := int(nPub%10) + 1
		if _, err := c.PublishRoundRobin(comm.ID, objs[:count]); err != nil {
			return false
		}
		rs, err := c.SearchFrom(int(searcher)%5, comm.ID, query.MatchAll{}, p2p.SearchOptions{TTL: 7})
		if err != nil {
			return false
		}
		// Each object found exactly once (one provider each).
		seen := map[string]int{}
		for _, r := range rs {
			seen[string(r.DocID)]++
		}
		if len(seen) != count {
			t.Logf("published %d, found %d distinct", count, len(seen))
			return false
		}
		for id, n := range seen {
			if n != 1 {
				t.Logf("doc %s found %d times", id, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
