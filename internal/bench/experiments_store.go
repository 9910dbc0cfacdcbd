package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/query"
)

// StoreConfig tunes E9, the store-scalability experiment. The
// up2pbench command exposes these as flags so operators can size the
// workload to their hardware.
type StoreConfig struct {
	// Communities is the number of distinct communities seeded.
	Communities int
	// DocsPerCommunity is the corpus size per community.
	DocsPerCommunity int
	// Workers is the number of concurrent clients; each is pinned to
	// one community (round-robin) like a servent serving one user.
	Workers int
	// OpsPerWorker is the operation count each worker executes.
	OpsPerWorker int
}

// RunE9 measures metadata-store throughput under concurrent
// publishers and searchers, without and with the result cache. Three
// workloads per configuration: batch ingest, community-scoped search,
// and a mixed read-mostly stream (1 put per 8 ops).
func RunE9(c Config) (Table, error) {
	cfg := c.Store
	t := Table{
		ID:    "E9",
		Title: "metadata store scalability: result cache off vs on",
		Headers: []string{
			"configuration", "workload", "workers", "ops", "ops/sec", "speedup",
		},
		Notes: []string{
			fmt.Sprintf("%d communities x %d docs; %d workers x %d ops; community-pinned clients",
				cfg.Communities, cfg.DocsPerCommunity, cfg.Workers, cfg.OpsPerWorker),
			"expected shape: each community keeps its own inverted-index postings, so search cost does not grow with the other communities' postings; one lock serializes writers, so the mixed rows pay for every put",
			"the cache row shows repeated popular queries served without recomputation (LRU entries validated by their community's write generation)",
		},
	}

	configs := []struct {
		name string
		opts []index.Option
	}{
		{"no cache", []index.Option{index.WithCacheSize(0)}},
		{"cache", nil},
	}
	baseline := make(map[string]float64) // workload -> baseline ops/sec

	for ci, c := range configs {
		store := index.NewStore(c.opts...)
		ingestOps, ingestSec := seedStore(store, cfg.Communities, cfg.DocsPerCommunity)
		record := func(workload string, ops int, seconds float64) {
			rate := float64(ops) / seconds
			speedup := "1.00x"
			if ci == 0 {
				baseline[workload] = rate
			} else if b := baseline[workload]; b > 0 {
				speedup = fmt.Sprintf("%.2fx", rate/b)
			}
			t.Rows = append(t.Rows, []string{
				c.name, workload,
				fmt.Sprintf("%d", cfg.Workers),
				fmt.Sprintf("%d", ops),
				fmt.Sprintf("%.0f", rate),
				speedup,
			})
		}
		record("batch ingest", ingestOps, ingestSec)
		searchOps, searchSec := runStoreWorkload(store, cfg.Workers, cfg.OpsPerWorker, cfg.Communities, false)
		record("search", searchOps, searchSec)
		mixedOps, mixedSec := runStoreWorkload(store, cfg.Workers, cfg.OpsPerWorker, cfg.Communities, true)
		record("mixed 8:1", mixedOps, mixedSec)
	}
	return t, nil
}

// seedStore loads the synthetic corpus through PutBatch, one batch per
// community, and reports documents loaded and elapsed seconds.
func seedStore(store *index.Store, communities, docsPer int) (int, float64) {
	start := time.Now()
	total := 0
	for c := 0; c < communities; c++ {
		comm := fmt.Sprintf("community-%02d", c)
		batch := make([]*index.Document, 0, docsPer)
		for i := 0; i < docsPer; i++ {
			batch = append(batch, &index.Document{
				ID:          index.DocID(fmt.Sprintf("d-%02d-%04d", c, i)),
				CommunityID: comm,
				Title:       fmt.Sprintf("Doc %d", i),
				XML:         "<obj>payload</obj>",
				Attrs: query.Attrs{
					"k":    {fmt.Sprintf("v%d", i%10)},
					"tags": {"alpha", fmt.Sprintf("t%d", i%5)},
				},
			})
		}
		if err := store.PutBatch(batch); err != nil {
			panic(fmt.Sprintf("bench: seed store: %v", err))
		}
		total += len(batch)
	}
	return total, time.Since(start).Seconds()
}

// runStoreWorkload drives workers concurrent clients and returns
// (total ops, elapsed seconds). Each worker is pinned to one
// community and rotates through a small filter set (the popular-query
// pattern); with mixed, every 8th operation is a Put into the
// worker's community.
func runStoreWorkload(store *index.Store, workers, opsPer, communities int, mixed bool) (int, float64) {
	filters := make([]query.Filter, 8)
	for i := range filters {
		filters[i] = query.MustParse(fmt.Sprintf("(k=v%d)", i))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			comm := fmt.Sprintf("community-%02d", w%communities)
			for i := 0; i < opsPer; i++ {
				if mixed && i%8 == 7 {
					_ = store.Put(&index.Document{
						ID:          index.DocID(fmt.Sprintf("w-%02d-%06d", w, i)),
						CommunityID: comm,
						Title:       "written",
						Attrs:       query.Attrs{"k": {"v1"}},
					})
					continue
				}
				store.Search(comm, filters[i%len(filters)], 20)
			}
		}(w)
	}
	wg.Wait()
	return workers * opsPer, time.Since(start).Seconds()
}
