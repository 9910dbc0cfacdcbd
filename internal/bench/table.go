// Package bench implements the experiment harness behind
// EXPERIMENTS.md: one runner per figure (F1–F3) and per quantified
// claim (E1–E5, E7, E8, E12–E16, E18), each reproducing the
// corresponding artifact of the paper — or extending its evaluation,
// as the super-peer failover E12, the flooding-vs-DHT scaling
// comparison E13, the churn and loss sweeps over all four overlays
// E14 and E15, the flash-crowd hotspot measurement E16, and the
// crash-safe persistence measurement E18 do — as a printed table. All
// runs are seeded and deterministic.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's output: paper-style rows.
type Table struct {
	// ID is the experiment identifier (F1..F3, E1..E18 less the
	// retired E6, E9, E10, E11 and the reserved E17).
	ID string
	// Title describes the experiment.
	Title string
	// Headers name the columns.
	Headers []string
	// Rows hold the measurements.
	Rows [][]string
	// Notes carry the expected shape and caveats.
	Notes []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	for _, row := range append([][]string{t.Headers, sep}, t.Rows...) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config sizes every configurable experiment; up2pbench fills it from
// its flags. A run reads nothing else, so two runs with different
// configs can share a process.
type Config struct {
	Scenario ScenarioConfig // E12, E14, E15; Seed also E13, E16
	DHT      DHTConfig      // E13–E15
	Hotspot  HotspotConfig  // E16
	WAL      WALConfig      // E18
}

// DefaultConfig returns the full-scale configuration EXPERIMENTS.md
// reports.
func DefaultConfig() Config {
	return Config{
		Scenario: ScenarioConfig{Peers: 1000, Queries: 120, Seed: 11},
		DHT:      DHTConfig{K: 16, Alpha: 3, E13MaxPeers: 10000},
		Hotspot:  HotspotConfig{Peers: 200, Burst: 300, K: 4, Alpha: 2},
		WAL: WALConfig{
			Communities:      8,
			DocsPerCommunity: 150,
			BatchDocs:        25,
			RecoveryBatches:  []int{50, 200, 800},
		},
	}
}

// Runner is one experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (Table, error)
}

// fixed adapts an experiment whose workload takes no configuration.
func fixed(run func() (Table, error)) func(Config) (Table, error) {
	return func(Config) (Table, error) { return run() }
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"F1", "shared object model pipeline (Fig. 1)", fixed(RunF1)},
		{"F2", "schema-to-form generation (Fig. 2)", fixed(RunF2)},
		{"F3", "community schema round trip (Fig. 3)", fixed(RunF3)},
		{"E1", "community discovery via root community", fixed(RunE1)},
		{"E2", "metadata vs filename search recall", fixed(RunE2)},
		{"E3", "protocol message cost: centralized vs flooding", fixed(RunE3)},
		{"E4", "index selectivity (searchable-field marking)", fixed(RunE4)},
		{"E5", "replication vs availability under churn", fixed(RunE5)},
		{"E7", "design-pattern case study (§V)", fixed(RunE7)},
		{"E8", "protocol independence: all four overlays", fixed(RunE8)},
		{"E12", "super-peer failover and leaf re-registration", RunE12},
		{"E13", "search cost scaling: flooding vs Kademlia DHT", RunE13},
		{"E14", "churn sweep: all four overlays, DHT refresh repair", RunE14},
		{"E15", "message-loss sweep: all four overlays", RunE15},
		{"E16", "flash-crowd hot key: caching STORE", RunE16},
		// E6, E9, E10 and E11 are retired and never reused
		// (EXPERIMENTS.md keeps their last readings); E17 is reserved
		// for distributed keyword search.
		{"E18", "crash-safe persistence: WAL overhead and recovery", RunE18},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}
