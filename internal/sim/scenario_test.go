package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
)

func TestScenarioBasicAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{Centralized, Gnutella, FastTrack, DHT} {
		t.Run(proto.String(), func(t *testing.T) {
			r, err := RunScenario(ScenarioConfig{
				Cluster:   Config{Peers: 30, Protocol: proto, Degree: 4, Seed: 5, Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond},
				Duration:  30 * time.Second,
				QueryRate: 2, ArrivalRate: 0.2, DepartureRate: 0.2,
				InitialObjects:  40,
				DHTRefreshEvery: 10 * time.Second, // ignored outside DHT
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Queries < 20 {
				t.Errorf("queries = %d, want a steady stream", r.Queries)
			}
			if r.Arrivals == 0 || r.Departures == 0 {
				t.Errorf("churn did not happen: arrivals=%d departures=%d", r.Arrivals, r.Departures)
			}
			if r.TraceHash == 0 || r.TraceLen == 0 {
				t.Error("trace hash not recorded")
			}
			if got := r.MeanRecall(0, 0); got < 0.5 {
				t.Errorf("mean recall = %v, unexpectedly low for mild churn", got)
			}
			if r.LatencyPercentile(95) <= 0 {
				t.Error("no virtual latency recorded despite latency model")
			}
			if r.LatencyPercentile(50) > r.LatencyPercentile(99) {
				t.Error("latency percentiles not monotone")
			}
			// The whole virtual 30s ran without real sleeping.
			if r.Elapsed > 10*time.Second {
				t.Errorf("scenario took %v real time", r.Elapsed)
			}
		})
	}
}

func TestScenarioFlashCrowd(t *testing.T) {
	base := ScenarioConfig{
		Cluster:        Config{Peers: 20, Protocol: Gnutella, Degree: 4, Seed: 9},
		Duration:       20 * time.Second,
		QueryRate:      1,
		InitialObjects: 30,
	}
	burst := base
	burst.BurstAt = 10 * time.Second
	burst.BurstQueries = 50
	r0, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunScenario(burst)
	if err != nil {
		t.Fatal(err)
	}
	// The flash crowd piles 50 queries onto one virtual instant.
	atBurst := 0
	for _, s := range r1.Samples {
		if s.At == burst.BurstAt {
			atBurst++
		}
	}
	if atBurst < 50 {
		t.Errorf("only %d queries at the burst instant, want >= 50", atBurst)
	}
	if r1.Queries < r0.Queries {
		t.Errorf("burst run had fewer queries overall: %d vs %d", r1.Queries, r0.Queries)
	}
}

func TestScenarioSuperPeerFailover(t *testing.T) {
	r, err := RunScenario(ScenarioConfig{
		Cluster:        Config{Peers: 48, Protocol: FastTrack, SuperPeers: 6, Seed: 12},
		Duration:       60 * time.Second,
		QueryRate:      4,
		InitialObjects: 60,
		FailSupersAt:   20 * time.Second,
		FailSupers:     2,
		RehomeDelay:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rehomed == 0 {
		t.Fatal("no leaves rehomed after super-peer failure")
	}
	before := r.MeanRecall(0, 20*time.Second)
	during := r.MeanRecall(20*time.Second, 30*time.Second)
	after := r.MeanRecall(31*time.Second, 60*time.Second)
	if before < 0.99 {
		t.Errorf("recall before failure = %v, want ~1", before)
	}
	if during >= before {
		t.Errorf("recall during outage (%v) did not dip below steady state (%v)", during, before)
	}
	if after <= during {
		t.Errorf("recall after rehoming (%v) did not recover above outage (%v)", after, during)
	}
}

// TestScenarioSuperFailureIgnoredOutsideFastTrack: configuring
// super-peer failure on a protocol without super-peers must be a
// harmless no-op, not a crash.
func TestScenarioSuperFailureIgnoredOutsideFastTrack(t *testing.T) {
	r, err := RunScenario(ScenarioConfig{
		Cluster:        Config{Peers: 10, Protocol: Gnutella, Degree: 3, Seed: 4},
		Duration:       20 * time.Second,
		QueryRate:      1,
		InitialObjects: 10,
		FailSupersAt:   5 * time.Second,
		FailSupers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rehomed != 0 {
		t.Errorf("rehomed = %d on gnutella", r.Rehomed)
	}
}

// TestScenarioChurn1000Peers is the scale acceptance gate: a
// 1000-peer Gnutella churn scenario must finish in under 10 seconds of
// real time on one CPU and reproduce its trace hash exactly on a
// second run — the property that makes paper-scale sweeps (E14)
// routine instead of overnight.
func TestScenarioChurn1000Peers(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate; race instrumentation skews it")
	}
	if testing.Short() {
		t.Skip("heavyweight scale test")
	}
	cfg := ScenarioConfig{
		Cluster: Config{
			Peers:    1000,
			Protocol: Gnutella,
			Degree:   4,
			Seed:     11,
			Latency:  30 * time.Millisecond,
			Jitter:   20 * time.Millisecond,
		},
		Duration:       60 * time.Second,
		QueryRate:      2,
		InitialObjects: 1000,
		ArrivalRate:    1,
		DepartureRate:  1,
	}
	r1, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed > 10*time.Second || r2.Elapsed > 10*time.Second {
		t.Errorf("1000-peer churn scenario too slow: %v, %v (want < 10s)", r1.Elapsed, r2.Elapsed)
	}
	if r1.TraceHash != r2.TraceHash || r1.TraceLen != r2.TraceLen {
		t.Errorf("trace not reproducible at scale: (%x,%d) vs (%x,%d)",
			r1.TraceHash, r1.TraceLen, r2.TraceHash, r2.TraceLen)
	}
	if r1.Arrivals < 30 || r1.Departures < 30 {
		t.Errorf("churn too thin: %d arrivals, %d departures", r1.Arrivals, r1.Departures)
	}
	// Flooding is horizon-bounded: with a diverse corpus (every
	// scenario object a distinct pattern, so each query's want-set is
	// a scattered subset of peers) a degree-4 TTL-bounded flood over
	// 1000 churning peers misses the holders beyond its horizon.
	// ~0.80 is the honest flooding number at this scale; the gate
	// guards against collapse, not against the horizon.
	if got := r1.MeanRecall(0, 0); got < 0.7 {
		t.Errorf("recall = %v at scale", got)
	}
}

// TestPropertyChurnRecallEquivalence: after killing a set of FastTrack
// leaves, a search sees exactly the documents that a static cluster of
// only the survivors would have indexed — churn leaves no ghosts
// behind and loses nothing it shouldn't (content-addressed DocIDs make
// the two runs comparable).
func TestPropertyChurnRecallEquivalence(t *testing.T) {
	objs := 12
	f := func(seed int64, killMask uint8) bool {
		const peers = 8
		searchDocs := func(publishTo func(i int) bool, kill []int) (map[index.DocID]bool, error) {
			c, err := NewCluster(Config{Peers: peers, Protocol: FastTrack, SuperPeers: 3, Seed: 77})
			if err != nil {
				return nil, err
			}
			comm, err := c.SeedCommunity(0, spec())
			if err != nil {
				return nil, err
			}
			if err := c.InstallCommunityAll(comm); err != nil {
				return nil, err
			}
			corp := corpus.DesignPatterns(objs, seed).Objects
			for i := 0; i < objs; i++ {
				p := i % peers
				if !publishTo(p) {
					continue
				}
				if _, err := c.Servents[p].Publish(comm.ID, corp[i].Doc.Clone(), nil); err != nil {
					return nil, err
				}
			}
			for _, k := range kill {
				c.KillPeer(k)
			}
			searcher := 0
			for _, i := range c.LivePeers() {
				searcher = i
				break
			}
			rs, err := c.SearchFrom(searcher, comm.ID, query.MatchAll{}, p2p.SearchOptions{})
			if err != nil {
				return nil, err
			}
			out := make(map[index.DocID]bool)
			for _, r := range rs {
				out[r.DocID] = true
			}
			return out, nil
		}
		// Never kill peer 0 (it searches in both runs).
		var kills []int
		dead := map[int]bool{}
		for p := 1; p < peers; p++ {
			if killMask&(1<<p) != 0 {
				kills = append(kills, p)
				dead[p] = true
			}
		}
		churned, err := searchDocs(func(int) bool { return true }, kills)
		if err != nil {
			t.Log(err)
			return false
		}
		static, err := searchDocs(func(p int) bool { return !dead[p] }, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(churned) != len(static) {
			t.Logf("kills=%v: churned=%d static=%d", kills, len(churned), len(static))
			return false
		}
		for id := range static {
			if !churned[id] {
				t.Logf("kills=%v: doc %s missing after churn", kills, id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestScenarioOracleAllocs: one query's oracle — the live list the
// querier is drawn from, and the recall of its answer against the truth
// — counts what it should and, once its scratch has grown, allocates
// nothing.
func TestScenarioOracleAllocs(t *testing.T) {
	s := &scenario{cluster: &Cluster{alive: []bool{true, false, true}}, truth: make(map[index.DocID]*docTruth)}
	for i := range 30 {
		class := [...]string{"behavioral", "creational"}[i%2]
		s.truth[index.DocID(fmt.Sprintf("d-%02d", i))] = &docTruth{
			attrs:   query.FieldsOf(query.Attrs{"classification": {class}}),
			holders: []int{i % 3}, // peer 1 is down
		}
	}
	// Expected: the behavioral documents held on peers 0 and 2, d-00,
	// d-02, d-06, d-08, ... — ten of them. The answer holds three of
	// them, one twice (two providers), one behavioral document only the
	// dead peer holds, a creational one and one the truth never saw.
	var rs []p2p.Result
	for _, id := range []index.DocID{"d-00", "d-02", "d-02", "d-04", "d-06", "d-01", "d-99"} {
		rs = append(rs, p2p.Result{DocID: id})
	}
	f := queryTemplates[0]
	if found, want := s.recall(f, rs); found != 3 || want != 10 {
		t.Fatalf("recall = %d of %d, want 3 of 10", found, want)
	}
	if s.live = s.cluster.appendLive(s.live[:0]); !slices.Equal(s.live, []int{0, 2}) {
		t.Fatalf("live = %v, want [0 2]", s.live)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := testing.AllocsPerRun(100, func() {
		s.live = s.cluster.appendLive(s.live[:0])
		s.recall(f, rs)
	}); n != 0 {
		t.Errorf("one query's oracle allocates %.1f times, want 0", n)
	}
}

// BenchmarkScenarioChurn runs one scenario per op shaped like the
// ruler's sim-dht-churn workload (simScenario in benchmark/simload.go):
// 200 DHT peers on jittered links, 200 objects, 60 virtual seconds of
// Poisson queries at 350 a minute, 5 % of the peers arriving and 5 %
// departing, a refresh round every ten virtual seconds. Op i runs seed
// 1000+i%3, the seeds of one ruler run. Its allocation profile splits
// the workload's allocations between the system and the scenario's own
// recall oracle without running the ruler.
func BenchmarkScenarioChurn(b *testing.B) {
	const peers, virtual = 200, 60 * time.Second
	churn := 0.05 * peers / virtual.Seconds()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := 1000 + int64(i%3)
		if _, err := RunScenario(ScenarioConfig{
			Cluster: Config{
				Peers: peers, Protocol: DHT, Seed: seed,
				Latency: 30 * time.Millisecond, Jitter: 20 * time.Millisecond,
			},
			Seed:            seed,
			Duration:        virtual,
			QueryRate:       350.0 / 60,
			InitialObjects:  200,
			ArrivalRate:     churn,
			DepartureRate:   churn,
			DHTRefreshEvery: 10 * time.Second,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
