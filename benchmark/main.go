// Command benchmark is the U-P2P ruler: four named workloads, the
// end-to-end metrics a servent user sees, per-layer probes and an
// outside-in traced pass. See README.md in this directory.
//
// Two front ends share one implementation:
//
//	go run ./benchmark -seed 1 -json out.json          every workload, untraced then traced
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//
// The second form is the BENCHMARK.json contract: one pass of one
// workload, whose last stdout line is a single JSON result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// passResult is the outcome of one pass (untraced or traced) of one
// workload. Its first four fields are the contract's result object;
// with the others at their zero value it marshals to exactly that.
type passResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// The rest is carried by the full-run summary only.
	Samples    map[string]int `json:"samples,omitempty"`
	WallS      float64        `json:"wall_s,omitempty"`
	FirstError string         `json:"first_error,omitempty"`
}

// workloadSummary pairs the two passes of one workload.
type workloadSummary struct {
	Workload string      `json:"workload"`
	Untraced *passResult `json:"untraced,omitempty"`
	Traced   *passResult `json:"traced,omitempty"`
}

// summary is the full run's JSON document.
type summary struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	Clients    int               `json:"clients"`
	Workloads  []workloadSummary `json:"workloads"`
	TotalWallS float64           `json:"total_wall_s"`
	// Claim is always null: this benchmark measures, it asserts no gain.
	Claim *string `json:"claim"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload (default: all four)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		traceMode = flag.Int("trace", -1, "contract mode: 0 = one untraced pass printing the end-to-end metrics, 1 = one traced pass printing the per-layer metrics")
		traced    = flag.Bool("traced", false, "full run: only the traced pass")
		jsonPath  = flag.String("json", "", "full run: write the JSON summary here")
		spansPath = flag.String("spans", "", "traced pass: append every span to this file as JSON lines")
		compare   = flag.Bool("compare", false, "compare two sides: -compare base.json[,base2.json...] change.json[,change2.json...]")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(os.Stdout, flag.Args()))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1")
		os.Exit(2)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	if *workload != "" {
		if !slices.Contains(names, *workload) {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %v)\n", *workload, names)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	run := runner{sc: fullScale, seed: *seed, seconds: *seconds, spansPath: *spansPath}

	if *traceMode >= 0 {
		if *workload == "" || *traceMode > 1 {
			fmt.Fprintln(os.Stderr, "-trace 0|1 needs -workload")
			os.Exit(2)
		}
		res := run.guarded(names[0], *traceMode == 1)
		printPass(os.Stderr, names[0], *traceMode == 1, res)
		line, err := json.Marshal(passResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
		if err != nil || !res.Correct && res.Attempted == 0 {
			fmt.Fprintf(os.Stderr, "%s did not produce a result: %s\n", names[0], res.FirstError)
			os.Exit(1)
		}
		fmt.Println(string(line))
		return
	}

	started := time.Now()
	sum := summary{
		Seed: *seed, Seconds: *seconds, Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Clients: clients,
	}
	ok := true
	for _, name := range names {
		ws := workloadSummary{Workload: name}
		if !*traced {
			res := run.guarded(name, false)
			printPass(os.Stdout, name, false, res)
			ws.Untraced = &res
			ok = ok && res.Correct
		}
		res := run.guarded(name, true)
		printPass(os.Stdout, name, true, res)
		ws.Traced = &res
		ok = ok && res.Correct
		sum.Workloads = append(sum.Workloads, ws)
	}
	sum.TotalWallS = time.Since(started).Seconds()
	fmt.Printf("total wall time %.1f s\n", sum.TotalWallS)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(sum, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runner holds what every pass of a run shares.
type runner struct {
	sc        scale
	seed      int64
	seconds   float64
	spansPath string
}

// guarded runs one pass under a watchdog of three times its expected
// wall time, so a hung workload is reported as failed instead of
// hanging the run.
func (r runner) guarded(name string, traced bool) passResult {
	started := time.Now()
	done := make(chan passResult, 1) // the pass may finish after the watchdog gave up
	go func() {
		var res passResult
		var err error
		switch {
		case name == wlSim && traced:
			res, err = r.simTraced()
		case name == wlSim:
			res, err = r.simUntraced()
		case traced:
			res, err = r.tcpTraced(name)
		default:
			res, err = r.tcpUntraced(name)
		}
		if err != nil {
			res.Correct = false
			res.FirstError = err.Error()
		}
		done <- res
	}()
	expected := time.Duration((r.seconds + 25) * float64(time.Second))
	select {
	case res := <-done:
		res.WallS = time.Since(started).Seconds()
		return res
	case <-time.After(3 * expected):
		return passResult{FirstError: fmt.Sprintf("watchdog: no result after %s", 3*expected), WallS: time.Since(started).Seconds()}
	}
}

var builders = map[string]func(scale, int64, tapMode) (*deployment, error){
	wlDHT: buildDHT, wlFlood: buildFlood, wlCentral: buildCentral,
}

// warmup is the unmeasured lead-in of a window.
func (r runner) warmup() time.Duration {
	return time.Duration(min(2, r.seconds/5) * float64(time.Second))
}

func (r runner) window() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

// setupReps is how often the untraced pass builds its deployment: the
// set-up time reported is the median, which one slow build cannot move.
const setupReps = 3

// buildMeasured builds the deployment reps times, keeping the last, and
// returns each build's wall time and the post-GC heap the kept
// deployment holds, per peer.
func buildMeasured(build func() (*deployment, error), reps int) (d *deployment, setupS []float64, heapKB float64, err error) {
	for i := 0; i < reps; i++ {
		base := heapAlloc()
		t0 := time.Now()
		d, err = build()
		if err != nil {
			if d != nil {
				d.close()
			}
			return nil, nil, 0, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < reps-1 {
			if err := d.close(); err != nil {
				return nil, nil, 0, err
			}
			continue
		}
		heapKB = (float64(heapAlloc()) - float64(base)) / 1024 / float64(d.peers)
	}
	return d, setupS, heapKB, nil
}

func (r runner) tcpUntraced(name string) (passResult, error) {
	d, setupS, heapKB, err := buildMeasured(func() (*deployment, error) { return builders[name](r.sc, r.seed, tapNone) }, setupReps)
	if err != nil {
		return passResult{}, err
	}
	st := runWindow(d, clients, r.warmup(), r.window(), r.seed)
	res := passResult{
		Attempted: st.attempted, Failed: st.failed,
		Metrics: endToEndMetrics(st, setupS, heapKB).finish(endToEnd),
		Samples: map[string]int{"search": len(st.latMs[opSearch]), "publish": len(st.latMs[opPublish]), "retrieve": len(st.latMs[opRetrieve])},
	}
	if st.firstErr != nil {
		res.FirstError = st.firstErr.Error()
	}
	if err := d.close(); err != nil {
		return res, err
	}
	res.Correct = st.failed == 0 && st.firstErr == nil && st.attempted > 0
	return res, nil
}

func (r runner) simUntraced() (passResult, error) {
	var (
		setupS []float64
		heapKB float64
	)
	for i := 0; i < setupReps; i++ {
		base := heapAlloc()
		held, err := buildSimSetup(r.sc, r.seed)
		if err != nil {
			return passResult{}, err
		}
		setupS = append(setupS, held.seconds)
		heapKB = (float64(heapAlloc()) - float64(base)) / 1024 / float64(r.sc.simPeers)
		runtime.KeepAlive(held)
	}
	run, err := runSim(r.sc, r.seed, simRepeats(r.sc, r.seconds), 0)
	if err != nil {
		return passResult{}, err
	}
	return passResult{
		Correct: run.failed == 0 && run.queries > 0, Attempted: run.queries, Failed: run.failed,
		Metrics: simEndToEnd(run, setupS, heapKB).finish(endToEnd),
		Samples: map[string]int{"search": len(run.latMs), "scenarios": run.scenarios},
	}, nil
}

// printPass prints every metric of one pass by name, with its unit.
func printPass(w *os.File, name string, traced bool, res passResult) {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): correct=%v attempted=%d failed=%d wall=%.1fs", name, pass, res.Correct, res.Attempted, res.Failed, res.WallS)
	if res.FirstError != "" {
		fmt.Fprintf(w, " first_error=%q", res.FirstError)
	}
	fmt.Fprintln(w)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", k, m.Value, m.Unit)
	}
	if len(res.Samples) > 0 {
		fmt.Fprintf(w, "  samples: %v\n", res.Samples)
	}
}
