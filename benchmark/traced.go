package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// The traced pass uses one client, so every span of an op belongs to
// the only op in progress and publish/retrieve spans can take their id
// from it. It runs three windows on one deployment: the traced window
// with the recorder on, between two reference windows with it off (one
// before, one after, so that drift over the run cancels); the rate
// ratio is the tracing overhead. End-to-end numbers never come from
// here.

// tracedWindows splits a run's seconds into one reference window and
// the traced window.
func (r runner) tracedWindows() (ref, traced time.Duration) {
	return time.Duration(r.seconds / 8 * float64(time.Second)),
		time.Duration(min(r.seconds*2/3, 10) * float64(time.Second))
}

func (r runner) tcpTraced(name string) (passResult, error) {
	d, err := builders[name](r.sc, r.seed, tapTrace)
	if err != nil {
		if d != nil {
			d.close()
		}
		return passResult{}, err
	}
	refWin, tracedWin := r.tracedWindows()
	ref := runWindow(d, 1, r.warmup(), refWin, r.seed)
	d.rec.start()
	st := runWindow(d, 1, r.warmup()/4, tracedWin, r.seed+1)
	d.rec.stop()
	ref2 := runWindow(d, 1, r.warmup()/4, refWin, r.seed+2)
	whole := d.reg.Snapshot()

	m := metricSet{}
	spans := d.rec.analyze()
	spanMetrics(m, spans, st)
	registryMetrics(m, st.after.reg.Delta(st.before.reg), whole, st)
	refRate := median(append(ref.sliceRates, ref2.sliceRates...))
	m["trace.overhead_ratio"] = ratio(refRate, median(st.sliceRates))
	m["driver.ops_per_s"] = refRate
	refLat := func(kind opKind) []float64 {
		all := append(append([]float64(nil), ref.latMs[kind]...), ref2.latMs[kind]...)
		sort.Float64s(all)
		return all
	}
	m["driver.search_p95_ms"] = percentile(refLat(opSearch), 95)
	m["driver.search_p99_ms"] = percentile(refLat(opSearch), 99)
	m["driver.publish_p50_ms"] = percentile(refLat(opPublish), 50)
	m["driver.publish_p95_ms"] = percentile(refLat(opPublish), 95)
	m["driver.retrieve_p50_ms"] = percentile(refLat(opRetrieve), 50)
	m["driver.slice_rate_spread"] = spread(st.sliceRates)
	m["runtime.gc_cpu_fraction"] = ratio(st.after.gcCPU-st.before.gcCPU, st.after.cpu-st.before.cpu)

	res := passResult{
		Attempted: ref.attempted + st.attempted + ref2.attempted, Failed: ref.failed + st.failed + ref2.failed,
		Samples: map[string]int{"ops": st.ops, "search": len(st.latMs[opSearch]), "spans": spans.spans},
	}
	err = firstErr(firstErr(ref.firstErr, st.firstErr), ref2.firstErr)
	if r.spansPath != "" {
		err = firstErr(err, d.rec.writeSpans(r.spansPath, name))
	}
	weight := make(map[string]int, len(d.rec.frames))
	for typ, fs := range d.rec.frames {
		weight[typ] = fs.count
	}
	prober{div: r.sc.probeDiv}.codec(m, d.rec.frames, weight)
	probe := d.probe
	// Close before probing: the probes' allocation counts are read from
	// the whole process and must not see the deployment's goroutines.
	err = firstErr(err, d.close())
	err = firstErr(err, layerProbes(m, probe, r.sc.probeDiv, true))
	res.Metrics = m.finish(perLayer)
	if err != nil {
		res.FirstError = err.Error()
	}
	res.Correct = res.Failed == 0 && err == nil && res.Attempted > 0
	return res, nil
}

func layerProbes(m metricSet, in probeInputs, div int, tcp bool) error {
	p := prober{div: div}
	err := p.xml(m, in)
	err = firstErr(err, p.queryAndIndex(m, in))
	return firstErr(err, p.fixed(m, tcp))
}

func spread(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	lo, hi := rates[0], rates[0]
	for _, v := range rates {
		lo, hi = min(lo, v), max(hi, v)
	}
	return ratio(hi-lo, median(rates))
}

// spanMetrics derives the span-sourced per-layer metrics.
func spanMetrics(m metricSet, s spanStats, st windowStats) {
	ops := float64(s.ops)
	m["core.self_us_per_op"] = ratio(float64(s.selfNs[kindCore])/1e3, ops)
	m["p2p.self_us_per_op"] = ratio(float64(s.selfNs[kindP2P])/1e3, ops)
	var selfSum int64
	for _, v := range s.selfNs {
		selfSum += v
	}
	m["trace.selfsum_ratio"] = ratio(float64(selfSum), float64(s.rootNs))
	m["trace.unattributed_share"] = ratio(float64(s.unattributedNs), float64(s.busyNs))
	m["transport.send_us_per_msg"] = ratio(float64(s.sendNs)/1e3, float64(s.sends))
	m["transport.inflight_us_per_msg"] = ratio(float64(s.inflightNs)/1e3, float64(s.inflights))
	m["transport.send_ms_per_op"] = ratio(float64(s.sendNs)/1e6, float64(st.ops))
	m["transport.send_errors"] = float64(s.sendErrs)
	m["handler.self_ms_per_op"] = ratio(float64(s.handlerSelfTotal)/1e6, float64(st.ops))
	for i, t := range wireTypes {
		m["p2p.msgs_by_type."+t+"_per_op"] = ratio(float64(s.sendsByType[i]), float64(st.ops))
		m["handler.self_us_per_msg."+t] = ratio(float64(s.handlerSelfNs[i])/1e3, float64(s.handlers[i]))
	}
	delta := st.after.reg.Delta(st.before.reg)
	m["transport.wire_overhead_ratio"] = ratio(float64(delta.Counter(ctrTCPBytes)), float64(s.payloadBytes))
	m["transport.syscalls_per_msg"] = ratio(float64(st.after.syscalls-st.before.syscalls), float64(delta.Counter(ctrTCPMsgs)))
}

// registryMetrics derives the per-layer metrics that are ratios of the
// program's own counters: delta is the traced window, whole the run so
// far (set-up included, for what only set-up exercises).
func registryMetrics(m metricSet, delta, whole *metrics.Snapshot, st windowStats) {
	hits, misses := float64(delta.Counter("index.cache_hits")), float64(delta.Counter("index.cache_misses"))
	m["index.cache_hit_ratio"] = ratio(hits, hits+misses)
	registering := float64(len(st.latMs[opPublish]) + len(st.latMs[opRetrieve]))
	m["index.wal_bytes_per_publish"] = ratio(float64(delta.Counter("index.wal_bytes")), registering)
	m["index.wal_appends_per_publish"] = ratio(float64(delta.Counter("index.wal_appends")), registering)
	dhtMetrics(m, delta.Counters, float64(delta.Counter(ctrTCPBytes)), float64(st.found))
	m["dht.store_fanout_per_publish"] = ratio(float64(whole.Counter("dht.store_fanout")), float64(whole.Label("p2p.publishes", "dht")))
}

// dhtMetrics derives the lookup and record-store ratios from dht.*
// counters; bytes and results give the useful-outcome ratio.
func dhtMetrics(m metricSet, c map[string]int64, bytes, results float64) {
	lookups := float64(c["dht.lookups"])
	m["dht.lookup_rounds_per_lookup"] = ratio(float64(c["dht.lookup_rounds"]), lookups)
	m["dht.peers_contacted_per_lookup"] = ratio(float64(c["dht.peers_contacted"]), lookups)
	m["dht.republishes_skipped"] = float64(c["dht.republishes_skipped"])
	m["dht.records_evicted"] = float64(c["dht.records_evicted"])
	if lookups > 0 {
		m["dht.wire_kb_per_result"] = ratio(bytes/1e3, results)
	}
}

// --- sim-dht-churn ---

// simTraced runs one scenario untraced and one with the program's own
// per-query tracing at full sampling (the sim builds its cluster
// itself, so there are no endpoints to wrap from outside), and probes
// the layers the sim runs on.
func (r runner) simTraced() (passResult, error) {
	setup, err := buildSimSetup(r.sc, r.seed)
	if err != nil {
		return passResult{}, err
	}
	plain, err := runSim(r.sc, r.seed, 1, 0)
	if err != nil {
		return passResult{}, err
	}
	traced, err := runSim(r.sc, r.seed, 1, 1)
	if err != nil {
		return passResult{}, err
	}
	m := metricSet{
		"sim.virtual_lat_p50_ms":  percentile(plain.latMs, 50),
		"sim.virtual_lat_p95_ms":  percentile(plain.latMs, 95),
		"sim.trace_hash":          float64(plain.traceHash & (1<<48 - 1)),
		"sim.newcluster_s":        setup.newClusterS,
		"trace.overhead_ratio":    ratio(traced.elapsed.Seconds(), plain.elapsed.Seconds()),
		"dht.maint_msg_share":     1 - ratio(float64(plain.queryMsgs), float64(plain.msgs)),
		"driver.ops_per_s":        ratio(float64(plain.events), plain.elapsed.Seconds()),
		"driver.search_p95_ms":    percentile(plain.latMs, 95),
		"driver.search_p99_ms":    percentile(plain.latMs, 99),
		"runtime.gc_cpu_fraction": ratio(plain.after.gcCPU-plain.before.gcCPU, plain.after.cpu-plain.before.cpu),
	}
	dhtMetrics(m, plain.counters, float64(plain.bytes), float64(plain.results))
	m["dht.store_fanout_per_publish"] = ratio(float64(plain.counters["dht.store_fanout"]), float64(plain.publishes))
	for i, t := range wireTypes {
		if i < len(wireTypes)-1 {
			m["p2p.msgs_by_type."+t+"_per_op"] = ratio(float64(plain.byType[t]), float64(plain.events))
		}
	}
	frames, err := captureMemFrames(r.seed)
	if err != nil {
		return passResult{}, err
	}
	weight := make(map[string]int, len(plain.byType))
	for t, n := range plain.byType {
		weight[t] = int(n)
	}
	prober{div: r.sc.probeDiv}.codec(m, frames, weight)
	probe := probeInputs{community: setup.community, objects: docsOf(setup.objects, 64), filters: simFilters}
	err = layerProbes(m, probe, r.sc.probeDiv, false)
	res := passResult{
		Correct: plain.failed == 0 && traced.failed == 0 && err == nil, Attempted: plain.queries + traced.queries,
		Failed: plain.failed + traced.failed, Metrics: m.finish(perLayer),
		Samples: map[string]int{"search": len(plain.latMs)},
	}
	if err != nil {
		res.FirstError = err.Error()
	}
	if plain.traceHash != traced.traceHash {
		res.Correct = false
		res.FirstError = fmt.Sprintf("tracing changed the message trace: hash %x vs %x", plain.traceHash, traced.traceHash)
	}
	return res, nil
}

// simFilters are the filter templates sim.RunScenario draws from.
var simFilters = []string{
	"(classification=behavioral)", "(classification=creational)", "(classification=structural)",
	"(keywords=notification)", "(name=*)",
}

// captureMemFrames runs a small DHT deployment on a MemNetwork whose
// endpoints the benchmark wraps, through publish, search and refresh,
// to capture sample payloads of every frame type the sim puts on the
// wire. The scenario's own per-type message counts weight them.
func captureMemFrames(seed int64) (map[string]*frameSample, error) {
	const peers = 32
	rec := newRecorder()
	net := transport.NewMemNetwork(transport.WithMetrics(metrics.Discard()))
	comm, err := patternCommunity()
	if err != nil {
		return nil, err
	}
	var nodes []*dht.Node
	var servents []*core.Servent
	for i := 0; i < peers; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("peer%03d", i)))
		if err != nil {
			return nil, err
		}
		st := index.NewStore()
		node := dht.NewNode(&tracedEndpoint{Endpoint: ep, rec: rec}, st, dht.Config{})
		sv, err := core.NewServent(node, st)
		if err != nil {
			return nil, err
		}
		if err := sv.AdoptCommunity(comm); err != nil {
			return nil, err
		}
		nodes, servents = append(nodes, node), append(servents, sv)
	}
	rec.start()
	for _, n := range nodes[1:] {
		n.Bootstrap(nodes[0].PeerID())
	}
	for i, o := range corpus.DesignPatterns(2*peers, seed).Objects {
		if _, err := servents[i%peers].Publish(comm.ID, o.Doc, nil); err != nil {
			return nil, err
		}
	}
	for i, src := range simFilters {
		if _, err := servents[(7*i)%peers].Search(comm.ID, query.MustParse(src), p2p.SearchOptions{}); err != nil {
			return nil, err
		}
	}
	for _, n := range nodes {
		if err := n.Refresh(); err != nil {
			return nil, err
		}
	}
	rec.stop()
	return rec.frames, nil
}
