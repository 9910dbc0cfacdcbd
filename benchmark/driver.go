package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/trace"
)

const (
	// clients is the number of closed-loop client goroutines of the
	// untraced pass: each waits for its reply before issuing the next
	// op, like a servent user at a browser. Never more than nproc.
	clients   = 2
	numSlices = 6
)

// exec runs one op through the servent API and judges its outcome
// against the ground truth. found/expected feed the recall mean.
func (d *deployment) exec(o op) (found, expected int, err error) {
	sv := d.servents[o.peer]
	var id uint64
	if d.rec.active() {
		id = d.rec.nextOp.Add(1)
		d.rec.current.Store(id)
		start := d.rec.now()
		defer func() { d.rec.opSpan(kindCore, id, o.kind, sv.PeerID(), start) }()
	}
	switch o.kind {
	case opSearch:
		issued := time.Now()
		opts := p2p.SearchOptions{Limit: o.limit, Timeout: searchTimeout, TTL: len(d.servents)}
		if id != 0 {
			opts.Trace = trace.Context{Trace: id, Span: id}
		}
		rs, err := sv.Search(o.community, o.filter.f, opts)
		if err != nil {
			return 0, 0, err
		}
		return d.truth.check(o.community, o.filter.src, o.filter.f, o.limit, issued, rs)
	case opPublish:
		want := core.DocIDFor(o.community, o.obj)
		attrs, err := d.attrsFor(o.community, o.obj)
		if err != nil {
			return 0, 0, err
		}
		d.truth.add(o.community, want, attrs, sv.PeerID(), never)
		got, err := sv.Publish(o.community, o.obj, nil)
		if err != nil {
			return 0, 0, err
		}
		if got != want {
			return 0, 0, fmt.Errorf("publish returned %s, want %s", got, want)
		}
		d.truth.confirm(got, sv.PeerID())
		return 0, 0, nil
	default:
		// Retrieving replicates: the peer becomes a provider too.
		d.truth.add(o.community, o.doc, d.truth.attrsOf(o.doc), sv.PeerID(), never)
		doc, err := sv.Retrieve(o.doc, o.from)
		if err != nil {
			return 0, 0, err
		}
		if doc.ID != o.doc {
			return 0, 0, fmt.Errorf("retrieve returned %s, want %s", doc.ID, o.doc)
		}
		d.truth.confirm(o.doc, sv.PeerID())
		html, err := sv.View(o.doc)
		if err != nil {
			return 0, 0, err
		}
		if html == "" {
			return 0, 0, fmt.Errorf("view of %s rendered nothing", o.doc)
		}
		return 0, 0, nil
	}
}

// usage is one reading of the process-wide cost counters.
type usage struct {
	at         time.Time
	cpu, gcCPU float64 // seconds
	mallocs    uint64
	totalAlloc uint64
	// syscalls is read + write system calls so far (/proc/self/io); 0
	// where procfs does not say.
	syscalls uint64
	reg      *metrics.Snapshot
}

func readUsage(reg *metrics.Registry) usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	u := usage{
		at:         time.Now(),
		cpu:        tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		gcCPU:      gc[0].Value.Float64(),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		syscalls:   ioSyscalls(),
	}
	if reg != nil {
		u.reg = reg.Snapshot()
	}
	return u
}

// ioSyscalls sums syscr and syscw of /proc/self/io.
func ioSyscalls() uint64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var total uint64
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ": "); ok && (name == "syscr" || name == "syscw") {
			n, _ := strconv.ParseUint(val, 10, 64) // a malformed line counts as 0
			total += n
		}
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// windowStats is what one measured window yields.
type windowStats struct {
	attempted, failed int
	// ops completed inside the window; the per-op metrics divide by it.
	ops        int
	sliceRates []float64
	// latMs holds per-kind latencies in milliseconds, sorted.
	latMs           [3][]float64
	found, expected int
	before, after   usage
	firstErr        error
}

type sample struct {
	kind opKind
	done time.Time
	ms   float64
}

// runWindow drives d with n closed-loop clients: warm-up, then a
// measured window cut into slices. Ops are counted by completion time.
func runWindow(d *deployment, n int, warm, window time.Duration, seed int64) windowStats {
	var (
		phase atomic.Int32 // 0 warm-up, 1 measuring, 2 stop
		wg    sync.WaitGroup
		mu    sync.Mutex
		st    windowStats
	)
	perClient := make([][]sample, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*1009 + int64(c)))
			for phase.Load() != 2 {
				o := d.next(r)
				t0 := time.Now()
				found, expected, err := d.exec(o)
				t1 := time.Now()
				if phase.Load() == 0 {
					if err != nil {
						mu.Lock()
						st.firstErr = firstErr(st.firstErr, fmt.Errorf("warm-up: %w", err))
						mu.Unlock()
					}
					continue
				}
				perClient[c] = append(perClient[c], sample{o.kind, t1, float64(t1.Sub(t0)) / 1e6})
				mu.Lock()
				st.attempted++
				st.found += found
				st.expected += expected
				if err != nil {
					st.failed++
					st.firstErr = firstErr(st.firstErr, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	time.Sleep(warm)
	st.before = readUsage(d.reg)
	phase.Store(1)
	time.Sleep(window)
	phase.Store(2)
	wg.Wait()
	// The window closes only when every acknowledged publish is
	// searchable: a backlog of unindexed registrations is unfinished
	// work and must show as a lower rate, not disappear.
	if d.settle != nil {
		if err := d.settle(); err != nil {
			st.failed++
			st.firstErr = firstErr(st.firstErr, err)
		}
	}
	st.after = readUsage(d.reg)

	counts := make([]int, numSlices)
	sliceDur := window / numSlices
	for _, samples := range perClient {
		for _, s := range samples {
			if s.done.Before(st.before.at) {
				continue // completed between the warm-up check and the reading
			}
			st.ops++
			i := min(int(s.done.Sub(st.before.at)/sliceDur), numSlices-1)
			counts[i]++
			st.latMs[s.kind] = append(st.latMs[s.kind], s.ms)
		}
	}
	for _, c := range counts {
		st.sliceRates = append(st.sliceRates, float64(c)/sliceDur.Seconds())
	}
	for k := range st.latMs {
		sort.Float64s(st.latMs[k])
	}
	return st
}

// percentile reads the p-th percentile (0..100) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// The registry counters the tcp-* workloads' message and byte metrics
// read.
const (
	ctrTCPMsgs  = "transport.tcp_msgs_sent"
	ctrTCPBytes = "transport.tcp_bytes_sent"
)

// endToEndMetrics turns a window (plus set-up readings) into the
// end-to-end metric set of a tcp-* workload.
func endToEndMetrics(st windowStats, setupS []float64, heapKBPerPeer float64) metricSet {
	ops := float64(st.ops)
	delta := st.after.reg.Delta(st.before.reg)
	msgs := float64(delta.Counter(ctrTCPMsgs))
	allocs := float64(st.after.mallocs - st.before.mallocs)
	return metricSet{
		"setup_s":          median(setupS),
		"ops_per_s":        median(st.sliceRates),
		"search_p50_ms":    percentile(st.latMs[opSearch], 50),
		"cpu_ms_per_op":    ratio((st.after.cpu-st.before.cpu)*1e3, ops),
		"msgs_per_op":      ratio(msgs, ops),
		"wire_kb_per_op":   ratio(float64(delta.Counter(ctrTCPBytes))/1e3, ops),
		"allocs_per_op":    ratio(allocs, ops),
		"allocs_per_msg":   ratio(allocs, msgs),
		"alloc_kb_per_op":  ratio(float64(st.after.totalAlloc-st.before.totalAlloc)/1024, ops),
		"heap_kb_per_peer": heapKBPerPeer,
		"recall":           ratio(float64(st.found), float64(st.expected)),
	}
}

// heapAlloc forces a collection and reads the live heap.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
