package bench

import (
	"fmt"
	"math"

	"repro/internal/dht"
	"repro/internal/sim"
)

// HotspotConfig scales the E16 flash-crowd experiment; up2pbench
// exposes the fields as -e16-* flags.
//
// K and Alpha deliberately differ from the DHT defaults: at 200 peers
// a k=16 routing table covers most of the network, so nearly every
// querier already knows the hot key's holders and reaches them in one
// hop — no lookup path exists for a cached copy to intercept. k=4
// models the regime the paper cares about (a network much larger than
// any routing table, where lookups take multiple hops through nodes
// near the key), which is where a flash crowd actually concentrates
// load and where the caching STORE earns its keep.
type HotspotConfig struct {
	// Peers is the DHT population under the flash crowd.
	Peers int
	// Burst is how many back-to-back queries the flash crowd aims at
	// the popular community filter.
	Burst int
	// K and Alpha are the Kademlia bucket size and lookup width for
	// the experiment's cluster (see the partial-table note above).
	K, Alpha int
}

// RunE16 measures flash-crowd survival on the DHT: the same seeded
// burst of queries for one popular filter against one community key,
// run twice — baseline, and with Kademlia's caching STORE. The headline is
// the load on the hot key's k natural holders over the burst window
// (holder max / holder mean messages): caching replicates the hot
// result set onto lookup-path nodes with halved TTLs, so queriers
// terminate before ever reaching the holders and their load collapses.
func RunE16(c Config) (Table, error) {
	hc := c.Hotspot
	peers, burst := hc.Peers, hc.Burst
	t := Table{
		ID: "E16",
		Title: fmt.Sprintf("Flash-crowd hot key: caching STORE (%d peers, %d-query burst, k=%d α=%d)",
			peers, burst, hc.K, hc.Alpha),
		Headers: []string{"mode", "holder max", "holder mean", "burst max", "burst mean", "recall", "cache stores", "cache hits"},
		Notes: []string{
			"holder max/mean = messages received during the burst window by the k live",
			"peers XOR-closest to the hot community key (its natural holders); burst",
			"max/mean = the same over all live peers; expected shape: caching cuts",
			"holder load >=2x on the same seed with recall unchanged, because cached",
			"copies on lookup-path nodes terminate queries before they reach the",
			"holders",
		},
	}
	modes := []struct {
		name  string
		cache bool
	}{
		{"baseline", false},
		{"cache", true},
	}
	for _, m := range modes {
		cluster := dhtScenarioCluster(c, peers, sim.DHT)
		cluster.DHT = dht.Config{K: hc.K, Alpha: hc.Alpha, CacheRecords: m.cache}
		cluster.PeerLoad = true
		r, err := sim.RunScenario(sim.ScenarioConfig{
			Cluster:  cluster,
			Duration: scenarioDuration,
			// Light background traffic; the burst is the measurement.
			QueryRate:       0.5,
			InitialObjects:  2 * peers,
			BurstAt:         scenarioDuration / 2,
			BurstQueries:    burst,
			DHTRefreshEvery: dhtRefreshEvery,
		})
		if err != nil {
			return t, err
		}
		if r.Load == nil {
			return t, fmt.Errorf("bench: E16 %s row produced no load measurement", m.name)
		}
		recall := "n/a"
		if mr := r.MeanRecall(0, 0); !math.IsNaN(mr) {
			recall = fmt.Sprintf("%.0f%%", 100*mr)
		}
		t.Rows = append(t.Rows, []string{
			m.name,
			fmt.Sprintf("%d", r.Load.HolderMax),
			fmt.Sprintf("%.1f", r.Load.HolderMean),
			fmt.Sprintf("%d", r.Load.Max),
			fmt.Sprintf("%.1f", r.Load.Mean),
			recall,
			fmt.Sprintf("%d", r.Metrics.Counter("dht.cache_stores")),
			fmt.Sprintf("%d", r.Metrics.Counter("dht.cache_hits")),
		})
	}
	return t, nil
}
