package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runCompare implements -compare BASE CHANGE. Each side is one summary
// file or a comma-separated list of summaries of the same code; with
// several, the medians are compared and the base side's quartile
// spread decides whether a difference can be resolved at all. It
// returns the process exit code: 1 on a regression or a higher fail
// ratio, 2 on bad input.
func runCompare(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare base.json[,base2.json...] change.json[,change2.json...]")
		return 2
	}
	base, err := loadSide(args[0])
	if err == nil {
		var change side
		if change, err = loadSide(args[1]); err == nil {
			return compareSides(w, base, change)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

// side maps workload -> metric -> one value per summary file.
type side struct {
	values map[string]map[string][]float64
	// failRatio is failed/attempted of the untraced passes, per workload.
	failRatio map[string][]float64
}

func loadSide(list string) (side, error) {
	s := side{values: make(map[string]map[string][]float64), failRatio: make(map[string][]float64)}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		var sum summary
		if err := json.Unmarshal(data, &sum); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		for _, ws := range sum.Workloads {
			if s.values[ws.Workload] == nil {
				s.values[ws.Workload] = make(map[string][]float64)
			}
			for _, pass := range []*passResult{ws.Untraced, ws.Traced} {
				if pass == nil {
					continue
				}
				for name, m := range pass.Metrics {
					s.values[ws.Workload][name] = append(s.values[ws.Workload][name], m.Value)
				}
			}
			if u := ws.Untraced; u != nil {
				s.failRatio[ws.Workload] = append(s.failRatio[ws.Workload], ratio(float64(u.Failed), float64(u.Attempted)))
			}
		}
	}
	return s, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the benchmark's acceptance check uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median; 0 below three values.
func iqrShare(v []float64) float64 {
	if len(v) < 3 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// verdict judges one (workload, metric) pair.
func verdict(def metricDef, base, change []float64) string {
	a, b := median(base), median(change)
	worsening := ratio(b-a, a)
	if def.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening <= def.Bound:
		return "ok"
	case iqrShare(base) > def.Bound && !allWorse(def, base, change):
		// The base's own runs differ by more than the bound, and the
		// two sides overlap: the difference cannot be told from noise.
		return "unresolved"
	default:
		return "regressed"
	}
}

// allWorse reports whether every change value is worse than every base
// value.
func allWorse(def metricDef, base, change []float64) bool {
	for _, b := range change {
		for _, a := range base {
			if (def.Better == "lower") == (b <= a) {
				return false
			}
		}
	}
	return true
}

func compareSides(w io.Writer, base, change side) int {
	code := 0
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %11s %7s  %s\n", "workload", "metric", "base", "change", "change/base", "bound", "status")
	for _, wl := range workloads {
		bv, cv := base.values[wl.Name], change.values[wl.Name]
		if bv == nil || cv == nil {
			continue
		}
		for _, def := range endToEnd {
			a, b := bv[def.Name], cv[def.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			status := verdict(def, a, b)
			if status == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-24s %14.4f %14.4f %11.4f %6.1f%%  %s\n",
				wl.Name, def.Name, median(a), median(b), ratio(median(b), median(a)), def.Bound*100, status)
		}
		fa, fb := median(base.failRatio[wl.Name]), median(change.failRatio[wl.Name])
		status := "ok"
		if fb > fa {
			status, code = "regressed", 1
		}
		fmt.Fprintf(w, "%-20s %-24s %14.6f %14.6f %11s %7s  %s\n", wl.Name, "fail_ratio", fa, fb, "", "+0", status)
		if wl.Name == wlSim {
			// The sim's counts repeat exactly for one seed: any movement
			// is a behaviour change, worth a line even inside the bound.
			for _, name := range []string{"msgs_per_op", "wire_kb_per_op", "sim.trace_hash"} {
				if a, b := bv[name], cv[name]; len(a) > 0 && len(b) > 0 {
					status := "identical"
					if median(a) != median(b) {
						status = "moved"
					}
					fmt.Fprintf(w, "%-20s %-24s %14.4f %14.4f %11s %7s  %s\n", wl.Name, name+" (exact)", median(a), median(b), "", "", status)
				}
			}
		}
	}
	return code
}
