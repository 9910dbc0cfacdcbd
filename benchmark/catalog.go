package main

// The catalog is the one place a workload or metric name is written
// down. BENCHMARK.json, the README tables, the JSON summary and
// -compare all derive from (or are tested against) these slices, so
// the ruler cannot drift from its documentation.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	// Why is the one-line rationale BENCHMARK.json carries.
	Why string
}

const (
	wlDHT     = "tcp-dht-search"
	wlFlood   = "tcp-gnutella-flood"
	wlCentral = "tcp-central-mixed"
	wlSim     = "sim-dht-churn"
)

var workloads = []workloadDef{
	{wlDHT,
		"Kademlia searches over loopback TCP with large reply frames: transport envelope, codec record decode and dht holder redundancy do the work; flooding code does none"},
	{wlFlood,
		"Gnutella floods over loopback TCP, many small frames per search: per-message transport cost and p2p dedupe/reverse routing dominate; dht does nothing"},
	{wlCentral,
		"Napster-style index server with a WAL: 80% search, 10% publish, 10% retrieve+view, so writes sit beside reads on index, query, xml and request/response transport"},
	{wlSim,
		"Seeded DHT churn scenarios on the virtual clock, no sockets: dsim, MemNetwork, codec and dht publish/refresh/lookup do the work, so a TCP rewrite must leave it flat"},
}

// metricDef is one catalog row.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression
	// (per-layer metrics carry none).
	Bound float64
	// Source says how the number is obtained: wall clock, rusage,
	// registry counter, runtime, probe, span or driver.
	Source string
	Help   string
}

// endToEnd is measured with tracing off, on every workload, and is
// never 0 on any. Search latency is wall-clock on the tcp-* workloads
// and on the virtual clock on sim-dht-churn (what a simulated user
// sees). The bounds come from the spreads measured across seeds; see
// "Steadiness" in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "wall clock", "median wall time of building the deployment (three builds per run)"},
	{"ops_per_s", "1/s", "higher", 0.25, "wall clock", "median of the six slice rates of completed ops"},
	{"search_p50_ms", "ms", "lower", 0.25, "wall clock", "median search latency (sim: virtual clock)"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "rusage", "process user+sys CPU per completed op"},
	{"msgs_per_op", "count", "lower", 0.05, "registry counter", "transport messages per op (tcp_msgs_sent / msgs_delivered delta)"},
	{"wire_kb_per_op", "KB", "lower", 0.19, "registry counter", "transport bytes per op (tcp_bytes_sent / bytes_delivered delta)"},
	{"allocs_per_op", "count", "lower", 0.15, "runtime", "runtime.MemStats.Mallocs delta per op, whole process"},
	{"allocs_per_msg", "count", "lower", 0.16, "runtime", "Mallocs delta per transport message"},
	{"alloc_kb_per_op", "KB", "lower", 0.10, "runtime", "MemStats.TotalAlloc delta per op"},
	{"heap_kb_per_peer", "KB", "lower", 0.08, "runtime", "post-GC HeapAlloc growth while holding the deployment, per peer"},
	{"recall", "ratio", "higher", 0.005, "driver", "mean found/expected against driver-side ground truth"},
}

// wireTypes are the message types that get their own per-type
// per-layer rows; everything else is folded into "other".
var wireTypes = []string{
	"register", "search", "search-hit", "fetch", "fetch-reply",
	"query", "query-hit",
	"dht-find-node", "dht-find-node-reply", "dht-find-value", "dht-find-value-reply", "dht-store",
	"other",
}

// perLayer comes from the traced pass: span arithmetic, registry
// deltas and probes. A metric that does not apply to a workload (dht.*
// on the flood, transport.tcp_* on the sim) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"core.self_us_per_op", "us", "lower", 0, "span", "op span minus everything deeper: validate, extract, local put, view"},

		{"xml.parse_us", "us", "lower", 0, "probe", "xmldoc.ParseString of one published object"},
		{"xml.parse_allocs", "count", "lower", 0, "probe", "allocations of one parse"},
		{"xml.validate_us", "us", "lower", 0, "probe", "Schema.Validate of one object"},
		{"xml.validate_allocs", "count", "lower", 0, "probe", "allocations of one validate"},
		{"xml.extract_us", "us", "lower", 0, "probe", "Indexer.Extract (XSLT) of one object"},
		{"xml.extract_allocs", "count", "lower", 0, "probe", "allocations of one extract"},
		{"xml.view_us", "us", "lower", 0, "probe", "stylegen.ViewHTML of one object"},
		{"xml.view_allocs", "count", "lower", 0, "probe", "allocations of one view"},
		{"xml.join_us", "us", "lower", 0, "probe", "core.UnmarshalCommunity + Indexer: the cost of joining a community"},
		{"xml.join_allocs", "count", "lower", 0, "probe", "allocations of one join"},

		{"query.parse_ns", "ns", "lower", 0, "probe", "query.Parse over the workload's filters"},
		{"query.parse_allocs", "count", "lower", 0, "probe", "allocations of one parse"},
		{"query.match_ns", "ns", "lower", 0, "probe", "Filter.Match over the workload's published attributes"},

		{"index.search_cached_us", "us", "lower", 0, "probe", "Store.Search served from the shard result cache"},
		{"index.search_uncached_us", "us", "lower", 0, "probe", "Store.Search with the result cache disabled"},
		{"index.put_us", "us", "lower", 0, "probe", "Store.Put into an in-memory store"},
		{"index.put_wal_us", "us", "lower", 0, "probe", "Store.Put with a WAL armed, FsyncOS"},
		{"index.cache_hit_ratio", "ratio", "higher", 0, "registry counter", "index.cache_hits / (hits + misses) over the traced window"},
		{"index.wal_bytes_per_publish", "B", "lower", 0, "registry counter", "index.wal_bytes per publish op"},
		{"index.wal_appends_per_publish", "count", "lower", 0, "registry counter", "index.wal_appends per publish op"},

		{"codec.encode_ns_per_frame", "ns", "lower", 0, "probe", "codec.Default.Encode over the captured frame mix"},
		{"codec.decode_ns_per_frame", "ns", "lower", 0, "probe", "codec.Decode over the captured frame mix"},
		{"codec.allocs_per_roundtrip", "count", "lower", 0, "probe", "allocations of one decode + encode"},
		{"codec.bytes_per_frame", "B", "lower", 0, "probe", "mean payload size of the captured frame mix"},

		{"transport.send_us_per_msg", "us", "lower", 0, "span", "mean transport.send span (Endpoint.Send call)"},
		{"transport.inflight_us_per_msg", "us", "lower", 0, "span", "mean send-start to handler-start"},
		{"transport.send_ms_per_op", "ms", "lower", 0, "span", "summed transport.send time per op"},
		{"transport.tcp_rtt_small_us", "us", "lower", 0, "probe", "two-node TCP ping-pong round trip, 64 B payload"},
		{"transport.tcp_rtt_64k_us", "us", "lower", 0, "probe", "two-node TCP ping-pong round trip, 64 KiB payload"},
		{"transport.tcp_allocs_per_msg", "count", "lower", 0, "probe", "allocations per message of the small ping-pong"},
		{"transport.wire_overhead_ratio", "ratio", "lower", 0, "registry counter", "tcp_bytes_sent / payload bytes"},
		{"transport.send_errors", "count", "lower", 0, "span", "Endpoint.Send calls that returned an error"},
		{"transport.syscalls_per_msg", "count", "lower", 0, "procfs", "read + write system calls (/proc/self/io syscr + syscw) per transport message"},
		{"transport.mem_deliver_ns", "ns", "lower", 0, "probe", "MemNetwork send + deliver of one 64 B message"},
		{"transport.mem_allocs_per_msg", "count", "lower", 0, "probe", "allocations of one MemNetwork delivery"},
		{"dsim.schedule_fire_ns", "ns", "lower", 0, "probe", "VirtualClock schedule + fire of one event"},
		{"dsim.allocs_per_event", "count", "lower", 0, "probe", "allocations of one scheduled event"},

		{"p2p.self_us_per_op", "us", "lower", 0, "span", "origin p2p span not covered by sends, handlers or messages in flight"},
		{"handler.self_ms_per_op", "ms", "lower", 0, "span", "summed handler time minus nested sends, per op"},

		{"dht.lookup_rounds_per_lookup", "count", "lower", 0, "registry counter", "dht.lookup_rounds / dht.lookups"},
		{"dht.peers_contacted_per_lookup", "count", "lower", 0, "registry counter", "dht.peers_contacted / dht.lookups"},
		{"dht.store_fanout_per_publish", "count", "lower", 0, "registry counter", "dht.store_fanout / publishes"},
		{"dht.wire_kb_per_result", "KB", "lower", 0, "registry counter", "bytes shipped per unique result returned"},
		{"dht.closest_ns", "ns", "lower", 0, "probe", "Table.ClosestAppend over a 160-contact table"},
		{"dht.republishes_skipped", "count", "higher", 0, "registry counter", "dht.republishes_skipped over the run"},
		{"dht.records_evicted", "count", "lower", 0, "registry counter", "dht.records_evicted over the run"},
		{"dht.maint_msg_share", "ratio", "lower", 0, "registry counter", "1 - query messages / all messages (sim)"},

		{"sim.virtual_lat_p50_ms", "ms", "lower", 0, "driver", "median virtual query latency"},
		{"sim.virtual_lat_p95_ms", "ms", "lower", 0, "driver", "95th percentile virtual query latency"},
		{"sim.trace_hash", "hash48", "higher", 0, "driver", "low 48 bits of the folded message-trace hashes: identical for one seed"},
		{"sim.newcluster_s", "s", "lower", 0, "wall clock", "sim.NewCluster alone, inside setup_s"},

		{"metrics.counter_inc_ns", "ns", "lower", 0, "probe", "metrics.Counter.Inc"},
		{"trace.disabled_span_ns", "ns", "lower", 0, "probe", "Start+Finish on a nil tracer"},
		{"trace.overhead_ratio", "ratio", "lower", 0, "driver", "untraced / traced ops_per_s, same client count"},
		{"trace.unattributed_share", "ratio", "lower", 0, "span", "send+handler time whose frames carried no op id"},
		{"trace.selfsum_ratio", "ratio", "lower", 0, "span", "sum of self times / sum of root spans (1 when the spans partition the op)"},
		{"driver.ops_per_s", "1/s", "higher", 0, "wall clock", "one-client op rate of the reference windows (recorder off)"},
		{"driver.search_p95_ms", "ms", "lower", 0, "wall clock", "95th percentile search latency of the reference windows (sim: virtual clock)"},
		{"driver.search_p99_ms", "ms", "lower", 0, "wall clock", "99th percentile search latency of the reference windows (sim: virtual clock)"},
		{"driver.publish_p50_ms", "ms", "lower", 0, "wall clock", "median Servent.Publish latency of the reference windows"},
		{"driver.publish_p95_ms", "ms", "lower", 0, "wall clock", "95th percentile Servent.Publish latency of the reference windows"},
		{"driver.retrieve_p50_ms", "ms", "lower", 0, "wall clock", "median Servent.Retrieve + View latency of the reference windows"},
		{"driver.slice_rate_spread", "ratio", "lower", 0, "wall clock", "(max - min) / median of the slice rates"},
		{"runtime.gc_cpu_fraction", "ratio", "lower", 0, "runtime", "GC CPU seconds / process CPU seconds over the window"},
	}
	for _, t := range wireTypes {
		m = append(m,
			metricDef{"p2p.msgs_by_type." + t + "_per_op", "count", "lower", 0, "span", "messages of this type per op"},
			metricDef{"handler.self_us_per_msg." + t, "us", "lower", 0, "span", "mean handler self time for this message type"})
	}
	return m
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name; finish fills in units and zeroes
// from a catalog so every run reports every catalog name.
type metricSet map[string]float64

func (m metricSet) finish(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
