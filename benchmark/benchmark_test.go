package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeScale is every workload at four peers.
var smokeScale = scale{
	dhtPeers: 4, dhtObjects: 24,
	floodPeers: 4, floodObjectsPerPeer: 6,
	centralPeers: 4, centralCommunities: 4, centralObjectsPerCommunity: 12, filters: 32,
	simPeers: 12, simObjects: 24, simVirtual: 20 * time.Second, simQueryRate: 2, simNominal: time.Second,
	probeDiv: 50,
}

func smokeRunner(seed int64) runner { return runner{sc: smokeScale, seed: seed, seconds: 0.6} }

// checkPass asserts that a pass reports every catalog metric, finite,
// and that nothing failed.
func checkPass(t *testing.T, res passResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d first error: %s", res.Correct, res.Attempted, res.Failed, res.FirstError)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		// The workloads' smoke tests share one process, so the heap a
		// pass sees grow can shrink when a neighbour closes: only that
		// metric may go negative here.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 && d.Name != "heap_kb_per_peer" {
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, catalog has %d", len(res.Metrics), len(defs))
	}
}

// TestSmoke runs both passes of every workload at smoke scale.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r := smokeRunner(3)
			res := r.guarded(w.Name, false)
			checkPass(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
			if got := res.Metrics["recall"].Value; got != 1 {
				t.Errorf("recall = %v, want 1", got)
			}
			traced := r.guarded(w.Name, true)
			checkPass(t, traced, perLayer)
			if w.Name != wlSim {
				if got := traced.Metrics["trace.selfsum_ratio"].Value; math.Abs(got-1) > 0.05 {
					t.Errorf("self times sum to %.3f of the root spans, want 1 within 5%%", got)
				}
				if traced.Metrics["core.self_us_per_op"].Value == 0 || traced.Metrics["transport.send_us_per_msg"].Value == 0 {
					t.Errorf("traced pass recorded no span time")
				}
			}
		})
	}
}

// TestCheckerBites shows the ground-truth check is not vacuous: with a
// network wrapper that drops one hit per search the fail ratio must be
// far above 0.
func TestCheckerBites(t *testing.T) {
	for name, build := range builders {
		d, err := build(smokeScale, 5, tapDropHit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := runWindow(d, 1, 0, 100*time.Millisecond, 5)
		if err := d.close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
		searches := len(st.latMs[opSearch])
		// Where the truth is static every search must fail. On
		// tcp-central-mixed the dropped hit is sometimes one the truth
		// does not require yet (a publish still settling), which no
		// checker can tell from a slow registration.
		want := searches
		if name == wlCentral {
			want = searches / 2
		}
		if searches == 0 || st.failed < want {
			t.Errorf("%s: %d of %d searches failed with a dropped hit; want at least %d", name, st.failed, searches, want)
		}
		if st.firstErr == nil || !strings.Contains(st.firstErr.Error(), "hit") {
			t.Errorf("%s: first error %v does not name the missing hit", name, st.firstErr)
		}
	}
}

// TestSelfTimes pins the span arithmetic on hand-made spans.
func TestSelfTimes(t *testing.T) {
	mk := func(kind spanKind, start, end int64) span { return span{op: 1, kind: kind, start: start, end: end} }
	root := mk(kindCore, 0, 100)

	t.Run("nested", func(t *testing.T) {
		// core [0,100) > p2p [10,90) > send [20,30), inflight [20,50), handler [50,70).
		spans := []span{root, mk(kindP2P, 10, 90), mk(kindSend, 20, 30), mk(kindInflight, 20, 50), mk(kindHandler, 50, 70)}
		want := [numKinds]int64{kindCore: 20, kindP2P: 30, kindInflight: 20, kindHandler: 20, kindSend: 10}
		if self := selfTimes(root, spans); self != want {
			t.Errorf("self = %v, want %v", self, want)
		}
	})
	t.Run("overlapping", func(t *testing.T) {
		// Two parallel handlers [20,60) and [40,80) cover [20,80) once;
		// a send [50,55) inside them owns its instant; a handler that
		// outlives the root is clipped.
		spans := []span{root, mk(kindP2P, 0, 100), mk(kindHandler, 20, 60), mk(kindHandler, 40, 80), mk(kindSend, 50, 55), mk(kindHandler, 95, 130)}
		self := selfTimes(root, spans)
		want := [numKinds]int64{kindCore: 0, kindP2P: 35, kindHandler: 60, kindSend: 5}
		if self != want {
			t.Errorf("self = %v, want %v", self, want)
		}
		var sum int64
		for _, v := range self {
			sum += v
		}
		if sum != root.dur() {
			t.Errorf("self times sum to %d, root is %d", sum, root.dur())
		}
	})
	t.Run("unattributed", func(t *testing.T) {
		r := newRecorder()
		r.spans = []span{
			root, mk(kindP2P, 10, 90), mk(kindSend, 20, 30), mk(kindHandler, 40, 70),
			// Op 0: a handler with a nested send, and a send on another node.
			{op: 0, kind: kindHandler, start: 200, end: 260, node: 1},
			{op: 0, kind: kindSend, start: 210, end: 230, node: 1},
			{op: 0, kind: kindSend, start: 300, end: 310, node: 2},
		}
		st := r.analyze()
		if st.ops != 1 || st.rootNs != 100 {
			t.Errorf("ops = %d root = %d, want 1 and 100", st.ops, st.rootNs)
		}
		if st.unattributedNs != 90 || st.busyNs != 130 {
			t.Errorf("unattributed %d of busy %d, want 90 of 130", st.unattributedNs, st.busyNs)
		}
		if st.handlerSelfTotal != 30+40 {
			t.Errorf("handler self total = %d, want 70 (the nested send is subtracted)", st.handlerSelfTotal)
		}
	})
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalog")

// benchmarkJSON renders the catalog in BENCHMARK.json's shape.
func benchmarkJSON(t *testing.T) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestCatalog keeps BENCHMARK.json, the catalog and the README from
// drifting apart, and checks the contract's limits on names, units,
// counts and bounds. `go test ./benchmark -run TestCatalog -update`
// rewrites BENCHMARK.json after a catalog change.
func TestCatalog(t *testing.T) {
	want := benchmarkJSON(t)
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is not what the catalog renders; run go test ./benchmark -run TestCatalog -update")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	haveSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		haveSetup = haveSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !haveSetup {
		t.Error("setup_s (s, lower) missing")
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		documented := bytes.Contains(readme, []byte("`"+d.Name+"`"))
		for _, typ := range wireTypes {
			// Per-type rows are documented once, with a <type> placeholder.
			if generic := strings.Replace(d.Name, typ, "<type>", 1); generic != d.Name {
				documented = documented || bytes.Contains(readme, []byte("`"+generic+"`"))
			}
		}
		if !documented {
			t.Errorf("README.md does not document %s", d.Name)
		}
	}
}

// TestSimRepeatsExactly: one seed gives identical counts and trace
// hash, another seed different ones.
func TestSimRepeatsExactly(t *testing.T) {
	run := func(seed int64) (float64, uint64) {
		r, err := runSim(smokeScale, seed, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return simEndToEnd(r, nil, 0)["msgs_per_op"], r.traceHash
	}
	m1, h1 := run(1)
	m2, h2 := run(1)
	m3, h3 := run(2)
	if m1 != m2 || h1 != h2 {
		t.Errorf("seed 1 twice: msgs_per_op %v vs %v, trace hash %x vs %x", m1, m2, h1, h2)
	}
	if m1 == m3 || h1 == h3 {
		t.Errorf("seeds 1 and 2 agree: msgs_per_op %v, trace hash %x", m1, h1)
	}
}

// TestCompare pins -compare's verdicts and its quartile method.
func TestCompare(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		def          metricDef
		base, change []float64
		want         string
	}{
		{lower, []float64{100}, []float64{109}, "ok"},
		{lower, []float64{100}, []float64{111}, "regressed"},
		{higher, []float64{100}, []float64{95}, "ok"},
		{higher, []float64{100}, []float64{85}, "regressed"},
		{lower, []float64{80, 100, 130, 90, 120}, []float64{115, 95, 125}, "unresolved"},
		{lower, []float64{80, 100, 130, 90, 120}, []float64{140, 150, 160}, "regressed"},
	} {
		if got := verdict(c.def, c.base, c.change); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Better, c.base, c.change, got, c.want)
		}
	}

	write := func(recall float64, failed int) string {
		sum := summary{Workloads: []workloadSummary{{Workload: wlDHT, Untraced: &passResult{
			Attempted: 100, Failed: failed, Metrics: metricSet{"recall": recall, "ops_per_s": 200}.finish(endToEnd),
		}}}}
		data, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/s.json"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if code := runCompare(&out, []string{write(1, 0), write(1, 0)}); code != 0 {
		t.Errorf("identical summaries: exit %d\n%s", code, out.String())
	}
	if code := runCompare(&out, []string{write(1, 0), write(1, 1)}); code != 1 {
		t.Errorf("a higher fail ratio: exit %d, want 1", code)
	}
	if code := runCompare(&out, []string{write(1, 0), write(0.9, 0)}); code != 1 {
		t.Errorf("recall 1 -> 0.9: exit %d, want 1", code)
	}
}

// TestFreshObjectsStayValid: the objects publishes generate validate
// against every corpus schema and hash to distinct IDs.
func TestFreshObjectsStayValid(t *testing.T) {
	d, err := buildCentral(smokeScale, 7, tapNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	r := rand.New(rand.NewSource(7))
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		o := d.next(r)
		if o.kind != opPublish {
			continue
		}
		if _, _, err := d.exec(o); err != nil {
			t.Fatalf("publish of a fresh object: %v", err)
		}
		if text := o.obj.String(); seen[text] {
			t.Fatalf("fresh object repeated: %s", text)
		} else {
			seen[text] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no publish drawn")
	}
}
