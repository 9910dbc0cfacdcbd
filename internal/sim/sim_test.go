package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/p2p"
	"repro/internal/query"
)

func spec() core.CommunitySpec {
	return core.CommunitySpec{
		Name:      "patterns",
		Keywords:  "gof design",
		SchemaSrc: corpus.PatternSchemaSrc,
	}
}

// Every node kind — servent-side and server-side, in p2p and in dht —
// offers the one wiring surface Cluster.wire uses.
var (
	_ node = (*p2p.CentralizedClient)(nil)
	_ node = (*p2p.FastTrackLeaf)(nil)
	_ node = (*p2p.GnutellaNode)(nil)
	_ node = (*p2p.SuperPeer)(nil)
	_ node = (*p2p.IndexServer)(nil)
	_ node = (*dht.Node)(nil)
)

func TestCentralizedClusterEndToEnd(t *testing.T) {
	c, err := NewCluster(Config{Peers: 5, Protocol: Centralized, Seed: 1})
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
	if joined != 5 {
		t.Fatalf("joined = %d, want 5", joined)
	}
	objs := corpus.DesignPatterns(23, 1).Objects
	ids, err := c.PublishRoundRobin(comm.ID, objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 23 {
		t.Fatalf("published = %d", len(ids))
	}
	rs, err := c.SearchFrom(3, comm.ID, query.MustParse("(name=Observer)"), p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Errorf("Observer hits = %d", len(rs))
	}
}

func TestGnutellaClusterEndToEnd(t *testing.T) {
	c, err := NewCluster(Config{Peers: 8, Protocol: Gnutella, Degree: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, spec())
	if err != nil {
		t.Fatal(err)
	}
	joined, err := c.DiscoverAndJoinAll("patterns", 8)
	if err != nil {
		t.Fatal(err)
	}
	if joined != 8 {
		t.Fatalf("joined = %d, want 8", joined)
	}
	objs := corpus.DesignPatterns(23, 1).Objects
	if _, err := c.PublishRoundRobin(comm.ID, objs); err != nil {
		t.Fatal(err)
	}
	rs, err := c.SearchFrom(5, comm.ID, query.MustParse("(classification=behavioral)"), p2p.SearchOptions{TTL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Error("no behavioral patterns found over flood")
	}
}

func TestKillPeerCentralized(t *testing.T) {
	c, err := NewCluster(Config{Peers: 3, Protocol: Centralized, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DiscoverAndJoinAll("patterns", 7); err != nil {
		t.Fatal(err)
	}
	objs := corpus.DesignPatterns(3, 1).Objects
	if _, err := c.PublishRoundRobin(comm.ID, objs); err != nil {
		t.Fatal(err)
	}
	// Peer 1 held object index 1; kill it.
	c.KillPeer(1)
	rs, err := c.SearchFrom(0, comm.ID, query.MatchAll{}, p2p.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Provider == "peer001" {
			t.Errorf("dead peer still listed as provider: %+v", r)
		}
	}
}

func TestKillPeerGnutellaUnreachable(t *testing.T) {
	c, err := NewCluster(Config{Peers: 4, Protocol: Gnutella, Degree: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DiscoverAndJoinAll("patterns", 8); err != nil {
		t.Fatal(err)
	}
	// Publish everything at peer 2, then kill it: objects vanish from
	// search results.
	obj := corpus.DesignPatterns(1, 1).Objects[0]
	if _, err := c.Servents[2].Publish(comm.ID, obj.Doc.Clone(), nil); err != nil {
		t.Fatal(err)
	}
	c.KillPeer(2)
	rs, err := c.SearchFrom(0, comm.ID, query.MatchAll{}, p2p.SearchOptions{TTL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("dead peer's objects still found: %+v", rs)
	}
}

func TestStatsAccounting(t *testing.T) {
	c, err := NewCluster(Config{Peers: 6, Protocol: Gnutella, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SeedCommunity(0, spec()); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()
	if _, err := c.SearchFrom(0, core.RootCommunityID, query.MatchAll{}, p2p.SearchOptions{TTL: 5}); err != nil {
		t.Fatal(err)
	}
	d := c.Metrics().Delta(before)
	if d.Counter("transport.msgs_delivered") == 0 {
		t.Error("no messages counted for flood search")
	}
	if d.Label("transport.msgs_by_type", p2p.MsgQuery) == 0 {
		t.Errorf("no query messages: %v", d.Labeled["transport.msgs_by_type"])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{Peers: 0, Protocol: Centralized}); err == nil {
		t.Error("zero peers accepted")
	}
	if _, err := NewCluster(Config{Peers: 2}); err == nil {
		t.Error("missing protocol accepted")
	}
}

func TestDeterministicTopology(t *testing.T) {
	build := func() []int {
		c, err := NewCluster(Config{Peers: 10, Protocol: Gnutella, Degree: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		degs := make([]int, 10)
		for i := 0; i < 10; i++ {
			degs[i] = len(c.nodes[i].Neighbors())
		}
		return degs
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("topology differs at %d: %v vs %v", i, a, b)
		}
	}
}
