package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sim"
)

// simScenario is the sim-dht-churn scenario: a DHT deployment on the
// virtual clock with jittered links, Poisson queries, 5% of the peers
// arriving and 5% departing over the run, and a refresh round every
// ten virtual seconds.
func simScenario(sc scale, seed int64) sim.ScenarioConfig {
	churn := 0.05 * float64(sc.simPeers) / sc.simVirtual.Seconds()
	return sim.ScenarioConfig{
		Cluster: sim.Config{
			Peers: sc.simPeers, Protocol: sim.DHT, Seed: seed,
			Latency: 30 * time.Millisecond, Jitter: 20 * time.Millisecond,
		},
		Seed:            seed,
		Duration:        sc.simVirtual,
		QueryRate:       sc.simQueryRate,
		InitialObjects:  sc.simObjects,
		ArrivalRate:     churn,
		DepartureRate:   churn,
		DHTRefreshEvery: 10 * time.Second,
	}
}

// simSetup is the set-up probe: the construction work RunScenario does
// before its first event (NewCluster, SeedCommunity, round-robin
// publication), built here so it can be timed and held for the heap
// reading.
type simSetup struct {
	cluster     *sim.Cluster
	community   *core.Community
	objects     []corpus.Object
	seconds     float64
	newClusterS float64
}

func buildSimSetup(sc scale, seed int64) (*simSetup, error) {
	cfg := simScenario(sc, seed)
	t0 := time.Now()
	cluster, err := sim.NewCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	s := &simSetup{cluster: cluster, newClusterS: time.Since(t0).Seconds()}
	s.community, err = cluster.SeedCommunity(0, core.CommunitySpec{
		Name: "patterns", Keywords: "gof design software", SchemaSrc: corpus.PatternSchemaSrc,
	})
	if err != nil {
		return nil, err
	}
	if err := cluster.InstallCommunityAll(s.community); err != nil {
		return nil, err
	}
	s.objects = corpus.DesignPatterns(sc.simObjects, seed).Objects
	if _, err := cluster.PublishRoundRobin(s.community.ID, s.objects); err != nil {
		return nil, err
	}
	s.seconds = time.Since(t0).Seconds()
	return s, nil
}

// simRun aggregates the scenario repeats of one run.
type simRun struct {
	scenarios       int
	queries, failed int
	// events counts what the scenarios did: queries, arrivals,
	// departures and per-peer refresh rounds. It is the sim workload's
	// "op": the query count alone is a Poisson draw that is a small,
	// noisy share of the work.
	events        int
	msgs, bytes   int64
	queryMsgs     int64
	results       int64
	elapsed       time.Duration
	latMs         []float64 // virtual, sorted
	recallSum     float64
	recallN       int
	traceHash     uint64
	counters      map[string]int64
	byType        map[string]int64 // transport.msgs_by_type
	publishes     int64
	before, after usage
}

// runSim executes `repeats` scenarios with seeds derived from seed.
func runSim(sc scale, seed int64, repeats int, traceSample float64) (*simRun, error) {
	r := &simRun{scenarios: repeats, counters: make(map[string]int64), byType: make(map[string]int64), traceHash: 14695981039346656037}
	r.before = readUsage(nil)
	for i := 0; i < repeats; i++ {
		cfg := simScenario(sc, seed*1000+int64(i))
		cfg.TraceSample = traceSample
		res, err := sim.RunScenario(cfg)
		if err != nil {
			return nil, err
		}
		r.queries += res.Queries
		r.failed += res.Failed
		r.events += res.Queries + res.Arrivals + res.Departures + res.Refreshes
		r.msgs += res.Messages
		r.bytes += res.Metrics.Counter("transport.bytes_delivered")
		r.elapsed += res.Elapsed
		r.traceHash = (r.traceHash ^ res.TraceHash) * 1099511628211
		for _, s := range res.Samples {
			r.latMs = append(r.latMs, float64(s.Latency)/1e6)
			r.queryMsgs += s.Messages
			r.results += int64(s.Results)
			if s.Recall >= 0 {
				r.recallSum += s.Recall
				r.recallN++
			}
		}
		for k, v := range res.Metrics.Counters {
			r.counters[k] += v
		}
		for k, v := range res.Metrics.Labeled["transport.msgs_by_type"] {
			r.byType[k] += v
		}
		r.publishes += res.Metrics.Label("p2p.publishes", "dht")
	}
	r.after = readUsage(nil)
	sort.Float64s(r.latMs)
	return r, nil
}

// simRepeats is how many scenarios a run of the given length executes.
func simRepeats(sc scale, seconds float64) int {
	return max(1, int(math.Round(seconds/sc.simNominal.Seconds())))
}

// simEndToEnd maps a sim run onto the end-to-end metric names.
func simEndToEnd(r *simRun, setupS []float64, heapKBPerPeer float64) metricSet {
	ops := float64(r.events)
	msgs := float64(r.msgs)
	allocs := float64(r.after.mallocs - r.before.mallocs)
	return metricSet{
		"setup_s":          median(setupS),
		"ops_per_s":        ratio(ops, r.elapsed.Seconds()),
		"search_p50_ms":    percentile(r.latMs, 50),
		"cpu_ms_per_op":    ratio((r.after.cpu-r.before.cpu)*1e3, ops),
		"msgs_per_op":      ratio(msgs, ops),
		"wire_kb_per_op":   ratio(float64(r.bytes)/1e3, ops),
		"allocs_per_op":    ratio(allocs, ops),
		"allocs_per_msg":   ratio(allocs, msgs),
		"alloc_kb_per_op":  ratio(float64(r.after.totalAlloc-r.before.totalAlloc)/1024, ops),
		"heap_kb_per_peer": heapKBPerPeer,
		"recall":           ratio(r.recallSum, float64(r.recallN)),
	}
}
