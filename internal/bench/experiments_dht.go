package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/sim"
)

// DHTConfig scales the structured-overlay experiments (E13–E15);
// up2pbench exposes the fields as -dht-* flags.
type DHTConfig struct {
	// K is the DHT bucket capacity / replication factor and Alpha the
	// lookup parallelism of every E13–E15 DHT row.
	K     int
	Alpha int
	// E13MaxPeers caps the E13 population ladder (the ladder keeps
	// its shape; rungs above the cap are skipped).
	E13MaxPeers int
}

// overlays lists the four overlays in presentation order: the paper's
// three architectures, then the DHT.
var overlays = []sim.Protocol{sim.Centralized, sim.Gnutella, sim.FastTrack, sim.DHT}

// dhtScenarioCluster builds the cluster config shared by the rows of
// E13–E16 (the DHT fields are ignored by the other overlays).
func dhtScenarioCluster(c Config, peers int, proto sim.Protocol) sim.Config {
	return sim.Config{
		Peers:    peers,
		Protocol: proto,
		Degree:   4,
		Seed:     c.Scenario.Seed,
		DHT:      dht.Config{K: c.DHT.K, Alpha: c.DHT.Alpha},
	}
}

// dhtRefreshEvery is the maintenance cadence of the E14–E16 DHT rows:
// frequent enough to repair a 20% churn within the run, rare enough
// that maintenance traffic stays visible as a separate line item.
const dhtRefreshEvery = 10 * time.Second

// RunE13 measures lookup cost scaling against population: the
// structural difference between flooding (message cost grows with the
// edge set, i.e. linearly in n) and DHT routing (iterative lookups
// converge in O(log n) rounds). Both protocols run the identical
// seeded workload over the identical corpus.
func RunE13(cfg Config) (Table, error) {
	t := Table{
		ID:      "E13",
		Title:   fmt.Sprintf("Search cost scaling: Gnutella flooding vs Kademlia DHT (k=%d, α=%d)", cfg.DHT.K, cfg.DHT.Alpha),
		Headers: []string{"protocol", "peers", "msgs/query", "bytes/query", "mean hops", "results/query", "allocs/msg", "live heap MB"},
		Notes: []string{
			"expected shape: flooding msgs/query grows ~linearly with peers (the flood",
			"covers the overlay's edge set); DHT msgs/query grows ~logarithmically (α-wide",
			"iterative lookup waves toward the community key, k replicas answering);",
			"hops: flood depth where hits sat vs DHT lookup rounds;",
			"allocs/msg: heap allocations per delivered message over the query phase",
			"(process-wide Mallocs delta);",
			"live heap MB: post-GC heap holding the whole cluster after the run",
		},
	}
	const queries = 20
	// The corpus is part of the workload definition and stays fixed;
	// topology, replica placement, and query origins all follow
	// -scn-seed like the other scenario experiments.
	pubCorpus := corpus.DesignPatterns(60, 13)
	ladder := []int{25, 50, 100, 200, 400, 800, 2500, 10000, 25000}
	run := func(proto sim.Protocol, peers int) error {
		c, err := sim.NewCluster(dhtScenarioCluster(cfg, peers, proto))
		if err != nil {
			return err
		}
		comm, err := c.SeedCommunity(0, core.CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
		if err != nil {
			return err
		}
		if err := c.InstallCommunityAll(comm); err != nil {
			return err
		}
		if _, err := c.PublishRoundRobin(comm.ID, pubCorpus.Objects); err != nil {
			return err
		}
		before := c.Metrics()
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		rng := rand.New(rand.NewSource(cfg.Scenario.Seed + 77))
		results, hopSum, hopN := 0, 0, 0
		for q := 0; q < queries; q++ {
			from := rng.Intn(peers)
			rs, err := c.SearchFrom(from, comm.ID, query.MustParse("(classification=behavioral)"), p2p.SearchOptions{TTL: p2p.DefaultTTL})
			if err != nil {
				return err
			}
			results += len(rs)
			maxHops := 0
			for _, r := range rs {
				if r.Hops > maxHops {
					maxHops = r.Hops
				}
			}
			if len(rs) > 0 {
				hopSum += maxHops
				hopN++
			}
		}
		st := c.Metrics().Delta(before)
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		allocsPerMsg := 0.0
		if delivered := st.Counter("transport.msgs_delivered"); delivered > 0 {
			allocsPerMsg = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(delivered)
		}
		runtime.GC()
		runtime.ReadMemStats(&msAfter)
		// Without this the cluster is dead at the GC above and the
		// heap column would read near-zero at every rung.
		runtime.KeepAlive(c)
		meanHops := 0.0
		if hopN > 0 {
			meanHops = float64(hopSum) / float64(hopN)
		}
		t.Rows = append(t.Rows, []string{
			proto.String(),
			fmt.Sprintf("%d", peers),
			fmt.Sprintf("%.1f", float64(st.Counter("transport.msgs_delivered"))/queries),
			fmt.Sprintf("%.0f", float64(st.Counter("transport.bytes_delivered"))/queries),
			fmt.Sprintf("%.1f", meanHops),
			fmt.Sprintf("%.1f", float64(results)/queries),
			fmt.Sprintf("%.1f", allocsPerMsg),
			fmt.Sprintf("%.1f", float64(msAfter.HeapAlloc)/(1<<20)),
		})
		return nil
	}
	for _, proto := range []sim.Protocol{sim.Gnutella, sim.DHT} {
		for _, n := range ladder {
			if n > cfg.DHT.E13MaxPeers {
				break
			}
			if err := run(proto, n); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// RunE14 sweeps peer churn across all four overlays on the virtual
// clock: the population/dynamics dimension of the paper's evaluation
// that wall-clock simulation could not reach. Poisson arrivals and
// departures take record replicas and index registrations with them;
// on the DHT the scheduled refresh (bucket repair + republish, the
// DHT's rehome-equivalent) is what keeps recall up.
func RunE14(c Config) (Table, error) {
	sc := c.Scenario
	t := Table{
		ID: "E14",
		Title: fmt.Sprintf("Churn sweep, all four overlays (%d peers, %d queries, virtual %v, DHT refresh every %v)",
			sc.Peers, sc.Queries, scenarioDuration, dhtRefreshEvery),
		Headers: []string{"protocol", "churn", "arr/dep", "final peers", "refreshes", "msgs/query", "recall", "lat p50", "lat p95", "real time", "total msgs"},
		Notes: []string{
			"churn = fraction of the population arriving (and departing) over the run;",
			"expected shape: recall holds near 100% while the overlay stays connected",
			"(degree-4 wiring of arrivals); msgs/query: centralized O(1), fasttrack",
			"bounded by the super-peer overlay, gnutella O(edges) and shrinking with churn",
			"as departures thin the edge set, dht O(log n); virtual latency: flooding pays",
			"multi-hop paths; DHT recall holds because departures leave k-1 replicas and",
			"each refresh re-replicates onto the current closest-k;",
			"msgs/query charges only query traffic; maintenance (refresh probes,",
			"republish STOREs) lands in total msgs",
		},
	}
	runRow := func(proto sim.Protocol, churn float64) error {
		rate := churn * float64(sc.Peers) / scenarioDuration.Seconds()
		cluster := dhtScenarioCluster(c, sc.Peers, proto)
		cluster.Latency = 30 * time.Millisecond
		cluster.Jitter = 20 * time.Millisecond
		r, err := sim.RunScenario(sim.ScenarioConfig{
			Cluster:         cluster,
			Duration:        scenarioDuration,
			QueryRate:       sc.queryRate(),
			InitialObjects:  sc.Peers,
			ArrivalRate:     rate,
			DepartureRate:   rate,
			DHTRefreshEvery: dhtRefreshEvery,
		})
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			proto.String(),
			fmt.Sprintf("%.0f%%", churn*100),
			fmt.Sprintf("%d/%d", r.Arrivals, r.Departures),
			fmt.Sprintf("%d", r.FinalPeers),
			fmt.Sprintf("%d", r.Refreshes),
			fmt.Sprintf("%.1f", r.MsgsPerQuery()),
			fmt.Sprintf("%.0f%%", 100*r.MeanRecall(0, 0)),
			fmt.Sprintf("%v", r.LatencyPercentile(50).Round(time.Millisecond)),
			fmt.Sprintf("%v", r.LatencyPercentile(95).Round(time.Millisecond)),
			fmt.Sprintf("%v", r.Elapsed.Round(time.Millisecond)),
			fmt.Sprintf("%d", r.Messages),
		})
		return nil
	}
	for _, proto := range overlays {
		for _, churn := range []float64{0, 0.05, 0.20} {
			if err := runRow(proto, churn); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// RunE15 sweeps message loss across all four overlays: datagram
// semantics degrade each protocol differently. Centralized searches
// fail outright when the single request/reply pair is lost; flooding
// degrades gracefully because redundant paths remain; the DHT loses
// replicas (lost STOREs) and lookup progress (lost RPC waves) but,
// like flooding, no single lost frame can fail a query.
func RunE15(c Config) (Table, error) {
	sc := c.Scenario
	peers := sc.Peers
	if peers > 200 {
		peers = 200
	}
	t := Table{
		ID:      "E15",
		Title:   fmt.Sprintf("Loss sweep, all four overlays (%d peers, %d queries)", peers, sc.Queries),
		Headers: []string{"protocol", "loss", "dropped", "failed queries", "msgs/query", "recall"},
		Notes: []string{
			"expected shape: centralized recall collapses ~linearly with loss (one lost",
			"frame kills the whole query); gnutella degrades gracefully via path redundancy",
			"and never hard-fails; fasttrack sits between (leaf->super is a single point,",
			"the overlay floods); the DHT holds ~100%: a lost STORE leaves k-1 replicas",
			"(restored each refresh) and lookups route around lost waves, at a fraction",
			"of flooding's cost; recall reads n/a when no query had a live match to find",
		},
	}
	for _, proto := range overlays {
		for _, loss := range []float64{0, 0.01, 0.05, 0.15} {
			cluster := dhtScenarioCluster(c, peers, proto)
			cluster.DropRate = loss
			r, err := sim.RunScenario(sim.ScenarioConfig{
				Cluster:         cluster,
				Duration:        scenarioDuration,
				QueryRate:       sc.queryRate(),
				InitialObjects:  peers,
				DHTRefreshEvery: dhtRefreshEvery,
			})
			if err != nil {
				return t, err
			}
			recall := "n/a"
			if m := r.MeanRecall(0, 0); !math.IsNaN(m) {
				recall = fmt.Sprintf("%.0f%%", 100*m)
			}
			t.Rows = append(t.Rows, []string{
				proto.String(),
				fmt.Sprintf("%.0f%%", loss*100),
				fmt.Sprintf("%d", r.Dropped),
				fmt.Sprintf("%d", r.Failed),
				fmt.Sprintf("%.1f", r.MsgsPerQuery()),
				recall,
			})
		}
	}
	return t, nil
}
