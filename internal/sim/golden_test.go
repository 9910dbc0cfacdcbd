package sim

import (
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/p2p"
	"repro/internal/query"
)

// goldenConfig is a small but fully loaded scenario: churn, loss,
// latency jitter, a flash crowd, and (for FastTrack) super-peer
// failover — every nondeterminism hazard at once.
func goldenConfig(proto Protocol, seed int64) ScenarioConfig {
	cfg := ScenarioConfig{
		Cluster: Config{
			Peers:    40,
			Protocol: proto,
			Degree:   4,
			Seed:     seed,
			DropRate: 0.02,
			Latency:  25 * time.Millisecond,
			Jitter:   15 * time.Millisecond,
		},
		Duration:       30 * time.Second,
		QueryRate:      3,
		ArrivalRate:    0.3,
		DepartureRate:  0.3,
		InitialObjects: 50,
		BurstAt:        12 * time.Second,
		BurstQueries:   10,
	}
	if proto == FastTrack {
		cfg.Cluster.SuperPeers = 5
		cfg.FailSupersAt = 15 * time.Second
		cfg.FailSupers = 1
		cfg.RehomeDelay = 3 * time.Second
	}
	if proto == DHT {
		// Small k plus a TTL shorter than the run forces every DHT
		// mechanism through the trace: replication, record expiry,
		// scheduled refresh/republish, and liveness-driven eviction.
		cfg.Cluster.DHT = dht.Config{K: 8, RecordTTL: 20 * time.Second}
		cfg.DHTRefreshEvery = 7 * time.Second
	}
	return cfg
}

// goldenHashes pins goldenConfig's message-trace hash per protocol, for
// seeds 42 and 7, as measured at commit dd2ddf6 (binary codec). The hash
// covers every frame's bytes in delivery order, so a refactor that says
// "no behaviour change" proves it by leaving this table alone. A PR that
// changes wire traffic on purpose — a frame layout, a message saved or
// added, an ordering — edits the table in the same commit and says so in
// CHANGES.md with the old and new values.
var goldenHashes = map[Protocol]map[int64]uint64{
	Centralized: {42: 0x3d4a7ee512016ca6, 7: 0x6b1ba709f25738a8},
	Gnutella:    {42: 0x3886a441b42f6bf5, 7: 0x679e5aee09946735},
	FastTrack:   {42: 0xc2b967d7884dcf4d, 7: 0x8cdc2e519f21e5b6},
	DHT:         {42: 0xea427290aaa0621f, 7: 0x5ec0ddb54b6dd687},
}

// TestGoldenTraceDeterminism: the same seed must reproduce the exact
// message trace — byte-for-byte, including loss decisions — on every
// protocol, and that trace must be the pinned one. CI runs this with
// -count=2, which additionally catches process-global state leaking
// between runs (e.g. a shared GUID counter would shift every query
// payload on the second run).
func TestGoldenTraceDeterminism(t *testing.T) {
	for _, proto := range []Protocol{Centralized, Gnutella, FastTrack, DHT} {
		t.Run(proto.String(), func(t *testing.T) {
			r1, err := RunScenario(goldenConfig(proto, 42))
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RunScenario(goldenConfig(proto, 42))
			if err != nil {
				t.Fatal(err)
			}
			if r1.TraceLen == 0 {
				t.Fatal("empty trace")
			}
			if r1.TraceLen != r2.TraceLen {
				t.Fatalf("trace lengths differ: %d vs %d", r1.TraceLen, r2.TraceLen)
			}
			if r1.TraceHash != r2.TraceHash {
				t.Fatalf("trace hashes differ: %x vs %x", r1.TraceHash, r2.TraceHash)
			}
			if want := goldenHashes[proto][42]; r1.TraceHash != want {
				t.Errorf("seed 42: trace hash %x, pinned %x: wire traffic changed", r1.TraceHash, want)
			}
			if r1.Queries != r2.Queries || r1.Arrivals != r2.Arrivals || r1.Departures != r2.Departures {
				t.Fatalf("workload differs: %+v vs %+v", r1, r2)
			}
			for i := range r1.Samples {
				a, b := r1.Samples[i], r2.Samples[i]
				if a != b {
					t.Fatalf("sample %d differs: %+v vs %+v", i, a, b)
				}
			}
			// A different seed must explore a different trajectory (equal
			// 64-bit hashes across all three protocols would be a broken
			// seed plumbing, not a coincidence).
			r3, err := RunScenario(goldenConfig(proto, 7))
			if err != nil {
				t.Fatal(err)
			}
			if r3.TraceHash == r1.TraceHash {
				t.Errorf("seed change did not change the trace")
			}
			if want := goldenHashes[proto][7]; r3.TraceHash != want {
				t.Errorf("seed 7: trace hash %x, pinned %x: wire traffic changed", r3.TraceHash, want)
			}
		})
	}
}

// TestGoldenTraceSingleClusterDeterminism pins determinism at the
// cluster level too (no scenario driver): discovery floods, batched
// publication, and searches hash identically across runs.
func TestGoldenTraceSingleClusterDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		c, err := NewCluster(Config{Peers: 16, Protocol: Gnutella, Degree: 4, Seed: 3, Trace: true})
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
		if _, err := c.PublishRoundRobin(comm.ID, corpus.DesignPatterns(20, 3).Objects); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := c.SearchFrom(i, comm.ID, query.MustParse("(name=*)"), p2p.SearchOptions{TTL: 7}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Net.TraceHash(), c.Net.TraceLen()
	}
	h1, n1 := run()
	h2, n2 := run()
	if n1 == 0 || n1 != n2 || h1 != h2 {
		t.Errorf("cluster trace not reproducible: (%x,%d) vs (%x,%d)", h1, n1, h2, n2)
	}
}
