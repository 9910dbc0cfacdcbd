package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// ScenarioConfig scales the discrete-event scenario experiments
// (E12, E14, E15); up2pbench exposes the fields as -scn-* flags so CI
// smoke jobs can shrink them and profiling runs can grow them.
type ScenarioConfig struct {
	// Peers is the E14 population (E12/E15 cap it lower; see each
	// experiment).
	Peers int
	// Queries approximates the measured queries per scenario run.
	Queries int
	// Seed drives every scenario in the suite.
	Seed int64
}

// scenarioDuration is the virtual length of every scenario run. Virtual
// time is free, so the choice only shapes rates.
const scenarioDuration = 60 * time.Second

func (sc ScenarioConfig) queryRate() float64 {
	return float64(sc.Queries) / scenarioDuration.Seconds()
}

// RunE12 measures FastTrack super-peer failover: recall before the
// failure, during the outage window (orphaned leaves unfindable), and
// after leaf re-registration restores them.
func RunE12(c Config) (Table, error) {
	sc := c.Scenario
	peers := sc.Peers
	if peers > 400 {
		peers = 400
	}
	const (
		supers   = 10
		failAt   = 20 * time.Second
		rehomeIn = 10 * time.Second
	)
	t := Table{
		ID:      "E12",
		Title:   fmt.Sprintf("Super-peer failover (fasttrack, %d peers, %d super-peers, 3 fail at %v, rehome +%v)", peers, supers, failAt, rehomeIn),
		Headers: []string{"phase", "window", "queries", "msgs/query", "recall"},
		Notes: []string{
			"expected shape: recall ~100% before; dips during the outage in proportion",
			"to the orphaned fraction; recovers after leaves re-register elsewhere",
		},
	}
	r, err := sim.RunScenario(sim.ScenarioConfig{
		Cluster: sim.Config{
			Peers:      peers,
			Protocol:   sim.FastTrack,
			SuperPeers: supers,
			Seed:       sc.Seed,
		},
		Duration:       scenarioDuration,
		QueryRate:      4 * sc.queryRate(), // dense sampling: phases are short
		InitialObjects: peers,
		FailSupersAt:   failAt,
		FailSupers:     3,
		RehomeDelay:    rehomeIn,
	})
	if err != nil {
		return t, err
	}
	phase := func(name string, from, to time.Duration) {
		queries, msgs := 0, int64(0)
		for _, s := range r.Samples {
			if s.At >= from && s.At < to {
				queries++
				msgs += s.Messages
			}
		}
		perQuery := 0.0
		if queries > 0 {
			perQuery = float64(msgs) / float64(queries)
		}
		recall := "n/a" // an unmeasured window must not read as 100%
		if m := r.MeanRecall(from, to); !math.IsNaN(m) {
			recall = fmt.Sprintf("%.0f%%", 100*m)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%v-%v", from, to),
			fmt.Sprintf("%d", queries),
			fmt.Sprintf("%.1f", perQuery),
			recall,
		})
	}
	phase("before failure", 0, failAt)
	phase("outage", failAt, failAt+rehomeIn)
	phase("after rehome", failAt+rehomeIn+time.Second, scenarioDuration)
	t.Notes = append(t.Notes, fmt.Sprintf("%d leaves re-registered after the outage", r.Rehomed))
	return t, nil
}
