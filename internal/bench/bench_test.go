package bench

import (
	"strconv"
	"strings"
	"testing"
)

// testConfig shrinks the scenario experiments to test scale: the full
// 1000-peer sweeps are an up2pbench artifact (and the dedicated
// acceptance test in internal/sim), not something every `go test`
// should pay ~50s for.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Scenario.Peers, cfg.Scenario.Queries = 120, 45
	cfg.DHT.E13MaxPeers = 100
	if raceEnabled {
		// The race job pays ~10x per message; the shapes under test
		// survive at 60 peers.
		cfg.Scenario.Peers, cfg.Scenario.Queries = 60, 30
	}
	return cfg
}

// tables caches each experiment's table at testConfig scale, so the
// shape tests that ask two questions of one sweep (E10's and E14's of
// the churn sweep, E11's and E15's of the loss sweep) share one run.
var tables = map[string]Table{}

// tableFor returns id's table, running the experiment if no earlier
// test has.
func tableFor(t *testing.T, id string) Table {
	t.Helper()
	if tbl, ok := tables[id]; ok {
		return tbl
	}
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	tbl, err := r.Run(testConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	tables[id] = tbl
	return tbl
}

// TestAllExperimentsRun executes every experiment once and checks the
// structural invariants of their tables.
func TestAllExperimentsRun(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := r.Run(testConfig())
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			tables[r.ID] = tbl
			if tbl.ID != r.ID {
				t.Errorf("table ID = %q", tbl.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Headers) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tbl.Headers))
				}
			}
			out := tbl.Format()
			if !strings.Contains(out, r.ID) {
				t.Error("formatted table missing ID")
			}
		})
	}
	// E10 and E11 were folded into E14 and E15: their IDs stay
	// retired, and the successor must still sweep every rung of each
	// overlay the retired experiment covered.
	for _, f := range []struct {
		id, into string
		rungs    int
	}{{"E10", "E14", 3}, {"E11", "E15", 4}} {
		f := f
		t.Run(f.id, func(t *testing.T) {
			if _, ok := ByID(f.id); ok {
				t.Errorf("retired ID %s reused", f.id)
			}
			perProto := map[string]int{}
			for _, row := range tableFor(t, f.into).Rows {
				perProto[row[0]]++
			}
			for _, proto := range []string{"centralized", "gnutella", "fasttrack"} {
				if perProto[proto] != f.rungs {
					t.Errorf("%s has %d %s rows, want %d", f.into, perProto[proto], proto, f.rungs)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e2"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := ByID("zz"); ok {
		t.Error("bogus ID found")
	}
}

// TestE1Shape verifies the paper's expected shape: 100% discovery and
// centralized cost per joiner below flooding cost at the largest N.
func TestE1Shape(t *testing.T) {
	tbl, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	perJoiner := map[string]float64{}
	for _, row := range tbl.Rows {
		if row[3] != "100%" {
			t.Errorf("discovery not total: %v", row)
		}
		if row[1] == "32" {
			per, _ := strconv.ParseFloat(row[5], 64)
			perJoiner[row[0]] = per
		}
	}
	if !(perJoiner["centralized"] < perJoiner["fasttrack"] && perJoiner["fasttrack"] < perJoiner["gnutella"]) {
		t.Errorf("per-joiner cost ordering violated at N=32: %v", perJoiner)
	}
}

// TestE2Shape verifies metadata recall dominates filename recall on
// attribute queries (the paper's core motivation).
func TestE2Shape(t *testing.T) {
	tbl, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	attributeRows := 0
	for _, row := range tbl.Rows {
		meta := pct(t, row[3])
		file := pct(t, row[5])
		if meta != 100 {
			t.Errorf("metadata recall %v%% on %q, want 100%%", meta, row[0])
		}
		if !strings.Contains(row[0], "name") {
			attributeRows++
			if file >= meta {
				t.Errorf("filename recall %v%% >= metadata %v%% on attribute query %q", file, meta, row[0])
			}
		}
	}
	if attributeRows < 3 {
		t.Errorf("too few attribute queries: %d", attributeRows)
	}
}

// TestE3Shape verifies flooding cost grows with N while centralized
// cost stays flat, and that TTL trades coverage for messages.
func TestE3Shape(t *testing.T) {
	tbl, err := RunE3()
	if err != nil {
		t.Fatal(err)
	}
	var central []float64
	var flood []float64
	ttlMsgs := map[int]float64{}
	ttlResults := map[int]float64{}
	for _, row := range tbl.Rows {
		msgs, _ := strconv.ParseFloat(row[3], 64)
		switch row[0] {
		case "centralized":
			central = append(central, msgs)
		case "gnutella":
			if row[1] == "32" {
				ttl, _ := strconv.Atoi(row[2])
				ttlMsgs[ttl] = msgs
				res, _ := strconv.ParseFloat(row[5], 64)
				ttlResults[ttl] = res
			}
			if row[2] == "7" {
				flood = append(flood, msgs)
			}
		}
	}
	for _, m := range central {
		if m > 4 {
			t.Errorf("centralized msgs/query = %v, want O(1)", m)
		}
	}
	if len(flood) >= 2 && flood[len(flood)-1] <= flood[0] {
		t.Errorf("flooding cost not growing with N: %v", flood)
	}
	if ttlMsgs[1] >= ttlMsgs[7] {
		t.Errorf("TTL1 msgs %v >= TTL7 msgs %v", ttlMsgs[1], ttlMsgs[7])
	}
	if ttlResults[1] > ttlResults[7] {
		t.Errorf("TTL1 results %v > TTL7 %v", ttlResults[1], ttlResults[7])
	}
}

// TestE4Shape verifies postings grow with marked fields and recall
// reaches 100% when all queried fields are marked.
func TestE4Shape(t *testing.T) {
	tbl, err := RunE4()
	if err != nil {
		t.Fatal(err)
	}
	var postings []int
	for _, row := range tbl.Rows {
		p, _ := strconv.Atoi(row[1])
		postings = append(postings, p)
	}
	for i := 1; i < len(postings); i++ {
		if postings[i] < postings[i-1] {
			t.Errorf("postings not monotone: %v", postings)
		}
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if pct(t, last[3]) != 100 {
		t.Errorf("full marking recall = %v", last[3])
	}
	first := tbl.Rows[0]
	if pct(t, first[3]) >= 100 {
		t.Errorf("single-field recall = %v, expected partial", first[3])
	}
}

// TestE5Shape verifies availability rises with replication.
func TestE5Shape(t *testing.T) {
	tbl, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	avail := map[string]map[int]float64{} // failFrac -> replicas -> availability
	for _, row := range tbl.Rows {
		r, _ := strconv.Atoi(row[0])
		if avail[row[1]] == nil {
			avail[row[1]] = map[int]float64{}
		}
		avail[row[1]][r] = pct(t, row[3])
	}
	for frac, m := range avail {
		if m[8] < m[1] {
			t.Errorf("fail %s: availability with 8 replicas (%v) below 1 replica (%v)", frac, m[8], m[1])
		}
		if m[8] < 90 {
			t.Errorf("fail %s: 8 replicas only %v%% available", frac, m[8])
		}
	}
}

// TestE8Shape verifies every overlay returns centralized's result
// set for every query.
func TestE8Shape(t *testing.T) {
	tbl, err := RunE8()
	if err != nil {
		t.Fatal(err)
	}
	// Column 5 follows the query and one hits column per overlay.
	if h := tbl.Headers[5]; h != "identical results" {
		t.Fatalf("column 5 is %q", h)
	}
	for _, row := range tbl.Rows {
		if row[5] != "yes" {
			t.Errorf("results differ across protocols for %q: %v", row[0], row)
		}
	}
}

// TestE12Shape verifies the failover arc: steady, dip, recovery.
func TestE12Shape(t *testing.T) {
	tbl, err := RunE12(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	before, outage, after := pct(t, tbl.Rows[0][4]), pct(t, tbl.Rows[1][4]), pct(t, tbl.Rows[2][4])
	if before < 99 {
		t.Errorf("recall before failure = %v%%", before)
	}
	if outage >= before {
		t.Errorf("no outage dip: %v%% >= %v%%", outage, before)
	}
	if after <= outage {
		t.Errorf("no recovery after rehome: %v%% <= %v%%", after, outage)
	}
}

// TestE13Shape is the DHT acceptance gate: on the identical seeded
// workload, flooding's per-query message cost keeps growing with
// population while the DHT's stays near-flat (logarithmic), without
// losing results.
func TestE13Shape(t *testing.T) {
	tbl, err := RunE13(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cost := map[string][]float64{} // protocol -> msgs/query per rung
	results := map[string][]float64{}
	for _, row := range tbl.Rows {
		msgs, _ := strconv.ParseFloat(row[2], 64)
		res, _ := strconv.ParseFloat(row[5], 64)
		cost[row[0]] = append(cost[row[0]], msgs)
		results[row[0]] = append(results[row[0]], res)
	}
	g, d := cost["gnutella"], cost["dht"]
	if len(g) < 3 || len(d) < 3 {
		t.Fatalf("ladder too short: %v / %v", g, d)
	}
	gGrowth := g[len(g)-1] / g[0]
	dGrowth := d[len(d)-1] / d[0]
	if dGrowth > 1.8 {
		t.Errorf("DHT cost not ~O(log n): grew %.2fx across the ladder (%v)", dGrowth, d)
	}
	if gGrowth < 1.5 {
		t.Errorf("flooding cost did not grow with N: %.2fx (%v)", gGrowth, g)
	}
	// Compare growth above flat: flooding's excess must dwarf the
	// DHT's (e.g. 2.0x vs 1.02x at the CI ladder).
	if gGrowth-1 < 4*(dGrowth-1) {
		t.Errorf("no clear separation: flooding %.2fx vs DHT %.2fx", gGrowth, dGrowth)
	}
	if g[len(g)-1] < 5*d[len(d)-1] {
		t.Errorf("at the largest rung flooding (%.1f) is not >> DHT (%.1f)", g[len(g)-1], d[len(d)-1])
	}
	dRes := results["dht"]
	if dRes[len(dRes)-1] < dRes[0] {
		t.Errorf("DHT results eroded with scale: %v", dRes)
	}
}

// TestE10Shape verifies the churn sweep's cost ordering (centralized <
// fasttrack < gnutella per query) and that recall survives churn on a
// connected overlay. The sweep is E14's; E10 was folded into it.
func TestE10Shape(t *testing.T) {
	tbl := tableFor(t, "E14")
	perProto := map[string]float64{}
	for _, row := range tbl.Rows {
		if row[0] == "dht" {
			continue // TestE14Shape
		}
		msgs, _ := strconv.ParseFloat(row[5], 64)
		perProto[row[0]] += msgs
		if r := pct(t, row[6]); r < 90 {
			t.Errorf("%s churn %s: recall %v%%", row[0], row[1], r)
		}
	}
	if !(perProto["centralized"] < perProto["fasttrack"] && perProto["fasttrack"] < perProto["gnutella"]) {
		t.Errorf("msgs/query ordering violated: %v", perProto)
	}
}

// TestE14Shape: under churn the DHT must hold recall (refresh repairs
// replicas) at a per-query cost far below flooding's.
func TestE14Shape(t *testing.T) {
	tbl := tableFor(t, "E14")
	if len(tbl.Rows) != 4*3 {
		t.Fatalf("%d rows, want 3 churn rates on each of the four overlays", len(tbl.Rows))
	}
	maxCost := map[string]float64{}
	for _, row := range tbl.Rows {
		msgs, _ := strconv.ParseFloat(row[5], 64)
		if msgs > maxCost[row[0]] {
			maxCost[row[0]] = msgs
		}
		if row[0] == "dht" {
			if r := pct(t, row[6]); r < 95 {
				t.Errorf("dht churn %s: recall %v%%, want >= 95%%", row[1], r)
			}
			if row[1] != "0%" && row[4] == "0" {
				t.Errorf("dht churn %s: no refresh rounds ran", row[1])
			}
		}
	}
	if maxCost["dht"]*3 > maxCost["gnutella"] {
		t.Errorf("dht cost (%.1f) not well below flooding (%.1f)", maxCost["dht"], maxCost["gnutella"])
	}
}

// TestE11Shape verifies loss erodes recall on the index and flooding
// overlays and that flooding never hard-fails a query while
// centralized does. The sweep is E15's; E11 was folded into it.
func TestE11Shape(t *testing.T) {
	tbl := tableFor(t, "E15")
	recalls := map[string][]float64{} // protocol -> recall per loss rung
	failed := map[string]int{}
	for _, row := range tbl.Rows {
		if row[0] == "dht" {
			continue // TestE15Shape
		}
		recalls[row[0]] = append(recalls[row[0]], pct(t, row[5]))
		n, _ := strconv.Atoi(row[3])
		failed[row[0]] += n
	}
	for _, proto := range []string{"centralized", "gnutella", "fasttrack"} {
		rs := recalls[proto]
		if len(rs) == 0 {
			t.Fatalf("no %s rows", proto)
		}
		// Gnutella's lossless recall sits a few points below 100: its
		// flood horizon (TTL x degree) misses want-set holders that a
		// diverse corpus scatters across the overlay. Centralized and
		// FastTrack have global indexes and stay at 100 lossless.
		floor := 95.0
		if proto == "gnutella" {
			floor = 88
		}
		if rs[0] < floor {
			t.Errorf("%s lossless recall = %v%%", proto, rs[0])
		}
		if rs[len(rs)-1] >= rs[0] {
			t.Errorf("%s recall did not erode with loss: %v", proto, rs)
		}
	}
	if failed["gnutella"] != 0 {
		t.Errorf("gnutella queries hard-failed under loss: %d (flooding has no single point)", failed["gnutella"])
	}
	if failed["centralized"] == 0 {
		t.Error("centralized never failed a query under 15% loss; timeout path untested")
	}
}

// TestE15Shape: the DHT never hard-fails a query, and its replicated
// records must weather loss at least as well as flooding's path
// redundancy.
func TestE15Shape(t *testing.T) {
	tbl := tableFor(t, "E15")
	if len(tbl.Rows) != 4*4 {
		t.Fatalf("%d rows, want 4 loss rates on each of the four overlays", len(tbl.Rows))
	}
	recall := map[string]map[string]float64{} // protocol -> loss -> recall
	for _, row := range tbl.Rows {
		if row[0] == "dht" && row[3] != "0" {
			t.Errorf("dht hard-failed %s queries under %s loss", row[3], row[1])
		}
		if recall[row[0]] == nil {
			recall[row[0]] = map[string]float64{}
		}
		recall[row[0]][row[1]] = pct(t, row[5])
	}
	for _, loss := range []string{"0%", "1%", "5%", "15%"} {
		if recall["dht"][loss] < recall["gnutella"][loss] {
			t.Errorf("at %s loss dht recall %v%% below gnutella %v%%", loss, recall["dht"][loss], recall["gnutella"][loss])
		}
	}
	if recall["dht"]["15%"] < 90 {
		t.Errorf("dht recall at 15%% loss = %v%%, replication not doing its job", recall["dht"]["15%"])
	}
}

func pct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return f
}

func TestTableFormat(t *testing.T) {
	tbl := Table{
		ID: "T", Title: "demo",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"xxxxxx", "1"}},
		Notes:   []string{"a note"},
	}
	out := tbl.Format()
	for _, want := range []string{"T — demo", "long-header", "xxxxxx", "note: a note", "------"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q in:\n%s", want, out)
		}
	}
}
