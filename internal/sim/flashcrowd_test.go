package sim

import (
	"testing"
	"time"

	"repro/internal/dht"
)

// flashCrowdConfig is the reduced flash-crowd scenario behind the
// hotspot smoke gate: 100 DHT peers, a 200-query burst at one
// community filter. k=3 keeps routing tables a small fraction of the
// population (the regime where lookups are multi-hop and a cached
// copy can intercept them — see HotspotConfig in internal/bench for
// the full-size E16 rationale).
func flashCrowdConfig(cache bool) ScenarioConfig {
	return ScenarioConfig{
		Cluster: Config{
			Peers:    100,
			Protocol: DHT,
			Degree:   4,
			Seed:     11,
			DHT:      dht.Config{K: 3, Alpha: 2, CacheRecords: cache},
			PeerLoad: true,
		},
		Duration:        time.Minute,
		QueryRate:       0.5,
		InitialObjects:  200,
		BurstAt:         30 * time.Second,
		BurstQueries:    200,
		DHTRefreshEvery: 10 * time.Second,
	}
}

// TestFlashCrowdCachingRelief is the hotspot smoke gate (`make
// hotspot-smoke`): on the same seed, enabling the caching STORE must
// at least halve the flash-crowd load on the hot key's busiest holder
// while keeping full recall.
func TestFlashCrowdCachingRelief(t *testing.T) {
	base, err := RunScenario(flashCrowdConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunScenario(flashCrowdConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if base.Load == nil || cached.Load == nil {
		t.Fatal("burst produced no load measurement")
	}
	if cached.Load.HolderMax*2 > base.Load.HolderMax {
		t.Errorf("caching relieved the hottest holder %d -> %d, want >= 2x",
			base.Load.HolderMax, cached.Load.HolderMax)
	}
	if got := base.MeanRecall(0, 0); got < 1 {
		t.Errorf("baseline recall = %v, want 1", got)
	}
	if got := cached.MeanRecall(0, 0); got < 1 {
		t.Errorf("cached recall = %v, want 1 (caching must not cost recall)", got)
	}
}

// TestFlashCrowdDeterminism: the cache-enabled flash crowd is fully
// reproducible — same seed, same trace, same per-holder load — so the
// E16 numbers are re-runnable figures, not samples.
func TestFlashCrowdDeterminism(t *testing.T) {
	r1, err := RunScenario(flashCrowdConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(flashCrowdConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if r1.TraceHash != r2.TraceHash || r1.TraceLen != r2.TraceLen {
		t.Errorf("trace not reproducible: (%x,%d) vs (%x,%d)",
			r1.TraceHash, r1.TraceLen, r2.TraceHash, r2.TraceLen)
	}
	if len(r1.Load.HolderMsgs) != len(r2.Load.HolderMsgs) {
		t.Fatalf("holder sets differ: %v vs %v", r1.Load.HolderMsgs, r2.Load.HolderMsgs)
	}
	for i := range r1.Load.HolderMsgs {
		if r1.Load.HolderMsgs[i] != r2.Load.HolderMsgs[i] {
			t.Errorf("holder load not reproducible at %d: %v vs %v",
				i, r1.Load.HolderMsgs, r2.Load.HolderMsgs)
		}
	}
}
