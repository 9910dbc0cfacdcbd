package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/dsim"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/stylegen"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/xmldoc"
)

// Probes time one layer's public functions in isolation, on the
// workload's own inputs (its objects, its filters, the frames its
// traced window put on the wire). They say what a call costs; the
// spans say how often and where it blocks.

// probeRounds rounds of n calls each; the median round is reported so
// one preempted round cannot move the number.
const probeRounds = 5

// prober runs the probes; div divides their iteration counts (the
// smoke tests cannot afford the full ones).
type prober struct{ div int }

// n scales an iteration count.
func (p prober) n(count int) int { return max(1, count/max(1, p.div)) }

// measure returns nanoseconds and allocations per call of fn.
func (p prober) measure(n int, fn func(i int)) (ns, allocs float64) {
	n = p.n(n)
	fn(0) // first call pays lazy initialisation
	var rounds []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(n))
	}
	runtime.ReadMemStats(&ms)
	return median(rounds), float64(ms.Mallocs-before) / float64(n*probeRounds)
}

var probeSink any

// xml times the xml pipeline (xmldoc, xsd, xslt, stylegen) on the
// workload's objects.
func (p prober) xml(m metricSet, in probeInputs) error {
	c := in.community
	ix, err := c.Indexer()
	if err != nil {
		return err
	}
	objs := in.objects
	texts := make([]string, len(objs))
	for i, o := range objs {
		texts[i] = o.String()
	}
	var perr error
	set := func(name string, n int, fn func(i int)) {
		ns, allocs := p.measure(n, fn)
		m["xml."+name+"_us"] = ns / 1e3
		m["xml."+name+"_allocs"] = allocs
	}
	set("parse", 200, func(i int) {
		probeSink, err = xmldoc.ParseString(texts[i%len(texts)])
		perr = firstErr(perr, err)
	})
	set("validate", 200, func(i int) { perr = firstErr(perr, c.Schema.Validate(objs[i%len(objs)])) })
	set("extract", 100, func(i int) {
		probeSink, err = ix.Extract(objs[i%len(objs)])
		perr = firstErr(perr, err)
	})
	set("view", 50, func(i int) {
		probeSink, err = stylegen.ViewHTML(objs[i%len(objs)])
		perr = firstErr(perr, err)
	})
	obj, attachments := c.Marshal()
	set("join", 20, func(int) {
		joined, err := core.UnmarshalCommunity(obj, attachments)
		if err == nil {
			probeSink, err = joined.Indexer()
		}
		perr = firstErr(perr, err)
	})
	return perr
}

// docsFor indexes the probe objects the way a publish would.
func docsFor(in probeInputs) ([]*index.Document, error) {
	ix, err := in.community.Indexer()
	if err != nil {
		return nil, err
	}
	docs := make([]*index.Document, len(in.objects))
	for i, o := range in.objects {
		attrs, err := ix.Extract(o)
		if err != nil {
			return nil, err
		}
		docs[i] = &index.Document{ID: core.DocIDFor(in.community.ID, o), CommunityID: in.community.ID, XML: o.String(), Attrs: attrs}
	}
	return docs, nil
}

// queryAndIndex times query parse/match and the metadata store.
func (p prober) queryAndIndex(m metricSet, in probeInputs) error {
	docs, err := docsFor(in)
	if err != nil {
		return err
	}
	filters := make([]query.Filter, len(in.filters))
	for i, src := range in.filters {
		if filters[i], err = query.Parse(src); err != nil {
			return err
		}
	}
	m["query.parse_ns"], m["query.parse_allocs"] = p.measure(2000, func(i int) {
		probeSink, _ = query.Parse(in.filters[i%len(in.filters)])
	})
	var hits int
	m["query.match_ns"], _ = p.measure(20000, func(i int) {
		if filters[i%len(filters)].Match(docs[i%len(docs)].Attrs) {
			hits++
		}
	})
	probeSink = hits

	search := func(st *index.Store) float64 {
		if err := st.PutBatch(docs); err != nil {
			return 0
		}
		ns, _ := p.measure(500, func(i int) { probeSink = st.Search(in.community.ID, filters[i%len(filters)], 25) })
		return ns / 1e3
	}
	m["index.search_cached_us"] = search(index.NewStore())
	m["index.search_uncached_us"] = search(index.NewStore(index.WithCacheSize(0)))

	put := func(st *index.Store) float64 {
		var perr error
		ns, _ := p.measure(200, func(i int) {
			d := *docs[i%len(docs)]
			d.ID = index.DocID(fmt.Sprintf("probe-%d", i))
			perr = firstErr(perr, st.Put(&d))
		})
		err = firstErr(err, perr)
		return ns / 1e3
	}
	m["index.put_us"] = put(index.NewStore())
	dir, derr := os.MkdirTemp("", "up2p-bench-probe-wal-")
	if derr != nil {
		return derr
	}
	defer os.RemoveAll(dir)
	wst, werr := index.OpenStore(index.WithWAL(dir), index.WithWALFsync(index.FsyncOS))
	if werr != nil {
		return werr
	}
	m["index.put_wal_us"] = put(wst)
	return firstErr(err, wst.Close())
}

// codec decodes and re-encodes a frame mix: the captured payloads
// of each wire type, visited in proportion to weight[type].
func (p prober) codec(m metricSet, frames map[string]*frameSample, weight map[string]int) {
	type frame struct {
		typ     string
		payload []byte
	}
	total := 0
	for typ := range frames {
		total += weight[typ]
	}
	if total == 0 {
		return
	}
	types := make([]string, 0, len(frames))
	for typ := range frames {
		types = append(types, typ)
	}
	sort.Strings(types)
	const mixLen = 512
	var mix []frame
	var bytes int
	for _, typ := range types {
		fs := frames[typ]
		if _, known := codec.New(typ); !known || len(fs.payloads) == 0 {
			continue
		}
		for i := 0; i < max(1, weight[typ]*mixLen/total); i++ {
			payload := fs.payloads[i%len(fs.payloads)]
			mix = append(mix, frame{typ, payload})
			bytes += len(payload)
		}
	}
	if len(mix) == 0 {
		return
	}
	decoded := make([]codec.Frame, len(mix))
	decNs, decAllocs := p.measure(len(mix), func(i int) {
		decoded[i], _ = codec.Decode(codec.Default, mix[i].typ, mix[i].payload)
	})
	encNs, encAllocs := p.measure(len(mix), func(i int) {
		if decoded[i] != nil {
			probeSink = codec.Default.Encode(decoded[i])
		}
	})
	m["codec.decode_ns_per_frame"] = decNs
	m["codec.encode_ns_per_frame"] = encNs
	m["codec.allocs_per_roundtrip"] = decAllocs + encAllocs
	m["codec.bytes_per_frame"] = float64(bytes) / float64(len(mix))
}

// tcpRTT ping-pongs n messages of the given payload size between two
// fresh loopback TCPNodes and returns the mean round trip and the
// allocations per message.
func tcpRTT(n, size int) (us, allocsPerMsg float64, err error) {
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	back := make(chan struct{}, 1) // one ping in flight at a time
	b.SetHandler(func(msg transport.Message) {
		_ = b.Send(transport.Message{To: msg.From, Type: "pong", Payload: msg.Payload}) // a lost pong times the probe out below
	})
	a.SetHandler(func(transport.Message) { back <- struct{}{} })
	payload := make([]byte, size)
	pingPong := func() error {
		if err := a.Send(transport.Message{To: b.ID(), Type: "ping", Payload: payload}); err != nil {
			return err
		}
		select {
		case <-back:
			return nil
		case <-time.After(rpcTimeout):
			return fmt.Errorf("tcp rtt probe: no pong within %s", rpcTimeout)
		}
	}
	if err := pingPong(); err != nil { // dials both connections
		return 0, 0, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := pingPong(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms)
	return float64(elapsed) / float64(n) / 1e3, float64(ms.Mallocs-before) / float64(2*n), nil
}

// fixed times the layers whose cost does not depend on the
// workload's inputs.
func (p prober) fixed(m metricSet, tcp bool) error {
	if tcp {
		var err error
		if m["transport.tcp_rtt_small_us"], m["transport.tcp_allocs_per_msg"], err = tcpRTT(p.n(2000), 64); err != nil {
			return err
		}
		if m["transport.tcp_rtt_64k_us"], _, err = tcpRTT(p.n(200), 64<<10); err != nil {
			return err
		}
	}

	net := transport.NewMemNetwork(transport.WithMetrics(metrics.Discard()))
	src, err := net.Endpoint("a")
	if err != nil {
		return err
	}
	dst, err := net.Endpoint("b")
	if err != nil {
		return err
	}
	dst.SetHandler(func(transport.Message) {})
	msg := transport.Message{To: "b", Type: "probe", Payload: make([]byte, 64)}
	m["transport.mem_deliver_ns"], m["transport.mem_allocs_per_msg"] = p.measure(100000, func(int) { _ = src.Send(msg) })

	clk := dsim.NewVirtualClock()
	fire := func(time.Time) {}
	m["dsim.schedule_fire_ns"], m["dsim.allocs_per_event"] = p.measure(100000, func(i int) {
		clk.Schedule(time.Duration(i%64)*time.Millisecond, fire)
		clk.Step()
	})

	r := rand.New(rand.NewSource(1))
	table := dht.NewTable(dht.NodeIDFor("probe-self"), dht.DefaultK)
	for i := 0; table.Len() < 160 && i < 1<<16; i++ {
		table.Observe(transport.PeerID(fmt.Sprintf("peer-%d", r.Int63())))
	}
	target := dht.KeyForCommunity("probe")
	var scratch []dht.Contact
	m["dht.closest_ns"], _ = p.measure(1000, func(int) { scratch = table.ClosestAppend(scratch[:0], target, dht.DefaultK) })

	ctr := metrics.NewRegistry().Counter("probe")
	m["metrics.counter_inc_ns"], _ = p.measure(1000000, func(int) { ctr.Inc() })
	var tr *trace.Tracer
	ctx := trace.Context{Trace: 1, Span: 1}
	m["trace.disabled_span_ns"], _ = p.measure(1000000, func(int) {
		sp := tr.Start(ctx, "probe")
		sp.Finish()
	})
	return nil
}
