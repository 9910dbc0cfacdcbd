package sim

import (
	"os"
	"testing"
	"time"

	"repro/internal/dht"
)

// scaleSmokeBudget is the wall-clock ceiling for the CI scale smoke:
// the point of the job is catching scale regressions (an accidental
// O(n²) in the event engine, a per-message allocation creeping back),
// and wall time at 5k peers is the signal that moves first.
const scaleSmokeBudget = 10 * time.Minute

// TestScaleSmoke is the CI scale gate (make scale-smoke): a ~5k-peer
// DHT deployment under churn on the virtual clock, required to finish
// inside scaleSmokeBudget with healthy recall. Gated behind
// UP2P_SCALE_SMOKE=1 so ordinary `go test ./...` stays fast.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("UP2P_SCALE_SMOKE") == "" {
		t.Skip("set UP2P_SCALE_SMOKE=1 to run the 5k-peer scale smoke")
	}
	start := time.Now()
	r, err := RunScenario(ScenarioConfig{
		Cluster: Config{
			Peers:    5000,
			Protocol: DHT,
			Seed:     42,
			// The whole corpus lives under one community key, so the
			// per-key holder cap must clear the object count or
			// eviction (correctly) truncates recall.
			DHT: dht.Config{K: 16, Alpha: 3, MaxRecordsPerKey: 4096},
		},
		Duration:        2 * time.Minute,
		QueryRate:       2,
		InitialObjects:  2000,
		ArrivalRate:     0.5,
		DepartureRate:   0.5,
		DHTRefreshEvery: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("5k-peer DHT churn: %d queries, recall %.1f%%, %d msgs, wall %v",
		r.Queries, 100*r.MeanRecall(0, 0), r.Messages, elapsed)
	if elapsed > scaleSmokeBudget {
		t.Errorf("scale smoke blew its wall-clock budget: %v > %v", elapsed, scaleSmokeBudget)
	}
	if r.Queries == 0 || r.TraceLen == 0 {
		t.Fatalf("degenerate run: %d queries, trace len %d", r.Queries, r.TraceLen)
	}
	if rec := r.MeanRecall(0, 0); rec < 0.9 {
		t.Errorf("recall %.2f below 0.9 at 5k peers under churn", rec)
	}
}
