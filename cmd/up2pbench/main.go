// Command up2pbench runs the experiment suite of EXPERIMENTS.md and
// prints every table/figure reproduction (F1–F3, E1–E16, E18).
//
//	up2pbench                          # run everything
//	up2pbench -run E3                  # one experiment
//	up2pbench -run E10 -scn-peers 200  # scenario experiment, reduced scale
//	up2pbench -run E13 -dht-k 8        # DHT comparison, smaller replication
//	up2pbench -run E16 -e16-burst 100  # flash crowd, reduced burst
//	up2pbench -run E18 -wal-docs 50    # WAL durability cost, reduced scale
//	up2pbench -list                    # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "up2pbench:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := bench.DefaultConfig()
	only := flag.String("run", "", "run a single experiment by ID (F1..F3, E1..E16, E18)")
	list := flag.Bool("list", false, "list experiments and exit")
	// E9 (store scalability) workload knobs.
	flag.IntVar(&cfg.Store.Workers, "store-workers", cfg.Store.Workers,
		"E9: concurrent store clients")
	flag.IntVar(&cfg.Store.Communities, "store-communities", cfg.Store.Communities,
		"E9: number of seeded communities")
	flag.IntVar(&cfg.Store.DocsPerCommunity, "store-docs", cfg.Store.DocsPerCommunity,
		"E9: documents per community")
	flag.IntVar(&cfg.Store.OpsPerWorker, "store-ops", cfg.Store.OpsPerWorker,
		"E9: operations per client")
	// E10–E12 (discrete-event scenario) workload knobs.
	flag.IntVar(&cfg.Scenario.Peers, "scn-peers", cfg.Scenario.Peers,
		"E10-E12: scenario population")
	flag.IntVar(&cfg.Scenario.Queries, "scn-queries", cfg.Scenario.Queries,
		"E10-E12: queries per scenario run")
	flag.Int64Var(&cfg.Scenario.Seed, "scn-seed", cfg.Scenario.Seed,
		"E10-E16: scenario seed (same seed -> identical trace)")
	// E13–E15 (DHT comparison) knobs.
	flag.IntVar(&cfg.DHT.K, "dht-k", cfg.DHT.K,
		"E13-E15: DHT bucket capacity / replication factor")
	flag.IntVar(&cfg.DHT.Alpha, "dht-alpha", cfg.DHT.Alpha,
		"E13-E15: DHT lookup parallelism")
	flag.IntVar(&cfg.DHT.E13MaxPeers, "e13-max-peers", cfg.DHT.E13MaxPeers,
		"E13: cap on the population ladder")
	// E16 (flash-crowd hot key) knobs.
	flag.IntVar(&cfg.Hotspot.Peers, "e16-peers", cfg.Hotspot.Peers,
		"E16: DHT population under the flash crowd")
	flag.IntVar(&cfg.Hotspot.Burst, "e16-burst", cfg.Hotspot.Burst,
		"E16: queries in the flash-crowd burst")
	// E18 (WAL durability) knobs.
	flag.IntVar(&cfg.WAL.DocsPerCommunity, "wal-docs", cfg.WAL.DocsPerCommunity,
		"E18: documents per community in the ingest workloads")
	walBatches := flag.String("wal-recovery-batches", "",
		"E18: comma-separated log lengths (in batches) for the recovery curve")
	flag.Parse()
	if *walBatches != "" {
		var lens []int
		for _, s := range strings.Split(*walBatches, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("-wal-recovery-batches: bad length %q", s)
			}
			lens = append(lens, n)
		}
		cfg.WAL.RecoveryBatches = lens
	}

	if *list {
		for _, r := range bench.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}
	runners := bench.All()
	if *only != "" {
		r, ok := bench.ByID(*only)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *only)
		}
		runners = []bench.Runner{r}
	}
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
