package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// Tracing is outside-in: the program under test is not touched. The
// benchmark wraps every transport.Endpoint (tracedEndpoint) and the
// p2p.Network handed to each servent (netTap), and the driver opens a
// root span per op. The op id rides SearchOptions.Trace into
// Message.TraceID, which every node propagates even with a nil tracer;
// frames that carry no id (publish and retrieve traffic, whose spans
// the nodes root on their own nil tracer) land in op 0, the
// unattributed bucket.

// spanKind orders span names from shallowest to deepest: where spans
// of one op overlap, the deeper kind owns the time.
type spanKind uint8

const (
	kindCore spanKind = iota
	kindP2P
	kindInflight
	kindHandler
	kindSend
	numKinds
)

var kindNames = [numKinds]string{"core", "p2p", "transport.inflight", "handler", "transport.send"}

// span is one recorded interval, compact because a flood leaves ~400
// of them per op.
type span struct {
	op         uint64
	start, end int64 // ns since the recorder's epoch
	bytes      int32
	kind       spanKind
	typ        uint8  // index into wireTypes (send, inflight, handler) or opNames (core, p2p)
	node, peer uint16 // indexes into recorder.peers
}

func (s span) dur() int64 { return s.end - s.start }

// opNames label core and p2p spans.
var opNames = []string{"search", "publish", "retrieve"}

type opKind uint8

const (
	opSearch opKind = iota
	opPublish
	opRetrieve
)

// frameSample keeps a few payloads of one wire type for the codec
// probe, plus the count that weights them.
type frameSample struct {
	count    int
	bytes    int64
	payloads [][]byte
}

const framesKeptPerType = 32

type flightKey struct{ from, to transport.PeerID }

// recorder holds every span of a traced pass in memory.
type recorder struct {
	on      atomic.Bool
	epoch   time.Time
	nextOp  atomic.Uint64
	current atomic.Uint64 // op in progress on the single traced client

	mu       sync.Mutex
	spans    []span
	peers    map[transport.PeerID]uint16
	peerList []transport.PeerID
	// flights queues send-start instants per directed connection. TCP
	// keeps frames of one connection in order, so the handler that
	// fires next on (from, to) belongs to the oldest queued send.
	flights  map[flightKey][]int64
	frames   map[string]*frameSample
	sendErrs int
	payload  int64
}

func newRecorder() *recorder {
	return &recorder{
		epoch:   time.Now(),
		peers:   make(map[transport.PeerID]uint16),
		flights: make(map[flightKey][]int64),
		frames:  make(map[string]*frameSample),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// active reports whether spans are being recorded; safe on nil.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// start arms recording on a quiescent deployment.
func (r *recorder) start() {
	r.mu.Lock()
	clear(r.flights)
	r.mu.Unlock()
	r.on.Store(true)
}

func (r *recorder) stop() { r.on.Store(false) }

func (r *recorder) peerLocked(id transport.PeerID) uint16 {
	i, ok := r.peers[id]
	if !ok {
		i = uint16(len(r.peerList))
		r.peers[id] = i
		r.peerList = append(r.peerList, id)
	}
	return i
}

func typeIndex(t string) uint8 {
	if i := slices.Index(wireTypes, t); i >= 0 {
		return uint8(i)
	}
	return uint8(len(wireTypes) - 1) // "other"
}

// opSpan records a core or p2p span that started at start and ends now.
func (r *recorder) opSpan(kind spanKind, op uint64, what opKind, node transport.PeerID, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{op: op, start: start, end: end, kind: kind, typ: uint8(what), node: r.peerLocked(node)})
	r.mu.Unlock()
}

// tracedEndpoint records a transport.send span around Send and, around
// the installed handler, the matching transport.inflight and handler
// spans.
type tracedEndpoint struct {
	transport.Endpoint
	rec *recorder
}

func (e *tracedEndpoint) Send(msg transport.Message) error {
	r := e.rec
	if !r.active() {
		return e.Endpoint.Send(msg)
	}
	key := flightKey{e.ID(), msg.To}
	start := r.now()
	r.mu.Lock()
	r.flights[key] = append(r.flights[key], start)
	r.mu.Unlock()
	err := e.Endpoint.Send(msg)
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		// Nothing will land: take the send back out of the queue.
		q := r.flights[key]
		if i := slices.Index(q, start); i >= 0 {
			r.flights[key] = slices.Delete(q, i, i+1)
		}
		r.sendErrs++
	}
	r.payload += int64(len(msg.Payload))
	fs := r.frames[msg.Type]
	if fs == nil {
		fs = &frameSample{}
		r.frames[msg.Type] = fs
	}
	fs.count++
	fs.bytes += int64(len(msg.Payload))
	if len(fs.payloads) < framesKeptPerType {
		fs.payloads = append(fs.payloads, slices.Clone(msg.Payload))
	}
	r.spans = append(r.spans, span{op: msg.TraceID, start: start, end: end, bytes: int32(len(msg.Payload)),
		kind: kindSend, typ: typeIndex(msg.Type), node: r.peerLocked(key.from), peer: r.peerLocked(key.to)})
	return err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(msg transport.Message) {
		r := e.rec
		if !r.active() {
			h(msg)
			return
		}
		key := flightKey{msg.From, e.ID()}
		start := r.now()
		r.mu.Lock()
		sent := int64(-1)
		if q := r.flights[key]; len(q) > 0 {
			sent = q[0]
			r.flights[key] = q[1:]
		}
		r.mu.Unlock()
		h(msg)
		end := r.now()
		r.mu.Lock()
		node, peer, typ := r.peerLocked(key.to), r.peerLocked(key.from), typeIndex(msg.Type)
		if sent >= 0 {
			r.spans = append(r.spans, span{op: msg.TraceID, start: sent, end: start, bytes: int32(len(msg.Payload)),
				kind: kindInflight, typ: typ, node: peer, peer: node})
		}
		r.spans = append(r.spans, span{op: msg.TraceID, start: start, end: end, bytes: int32(len(msg.Payload)),
			kind: kindHandler, typ: typ, node: node, peer: peer})
		r.mu.Unlock()
	})
}

// netTap wraps the p2p.Network a servent is built on: p2p.* spans for
// the three primitives. Search carries its op id in opts.Trace; publish
// and retrieve have no such parameter and take the id of the op the
// (single) traced client has in progress.
type netTap struct {
	p2p.Network
	rec *recorder
	// dropHit makes Search lose one hit — only the checker's self-test
	// sets it, to show that the ground-truth check bites.
	dropHit bool
}

func (n *netTap) Search(communityID string, f query.Filter, opts p2p.SearchOptions) ([]p2p.Result, error) {
	var start int64
	if n.rec.active() {
		start = n.rec.now()
	}
	rs, err := n.Network.Search(communityID, f, opts)
	if n.rec.active() {
		n.rec.opSpan(kindP2P, opts.Trace.Trace, opSearch, n.PeerID(), start)
	}
	if n.dropHit && len(rs) > 0 {
		rs = rs[1:]
	}
	return rs, err
}

func (n *netTap) Publish(doc *index.Document) error {
	if !n.rec.active() {
		return n.Network.Publish(doc)
	}
	start := n.rec.now()
	err := n.Network.Publish(doc)
	n.rec.opSpan(kindP2P, n.rec.current.Load(), opPublish, n.PeerID(), start)
	return err
}

func (n *netTap) Retrieve(id index.DocID, from transport.PeerID) (*index.Document, error) {
	if !n.rec.active() {
		return n.Network.Retrieve(id, from)
	}
	start := n.rec.now()
	doc, err := n.Network.Retrieve(id, from)
	n.rec.opSpan(kindP2P, n.rec.current.Load(), opRetrieve, n.PeerID(), start)
	return doc, err
}

// --- span arithmetic ---

// interval is a half-open [lo, hi) stretch of the recorder's clock.
type interval struct{ lo, hi int64 }

// union sorts and merges intervals in place.
func union(in []interval) []interval {
	sort.Slice(in, func(i, j int) bool { return in[i].lo < in[j].lo })
	out := in[:0]
	for _, iv := range in {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

func total(ivs []interval) int64 {
	var t int64
	for _, iv := range ivs {
		t += iv.hi - iv.lo
	}
	return t
}

// selfTimes splits one op's root interval among the span kinds. A
// span's self time is its duration minus the part deeper spans of the
// same op cover; where spans overlap (parallel RPCs, a flood) the
// union is subtracted once and the deepest kind owns the instant, so
// the self times partition the root: they sum to its duration exactly.
// Spans are clipped to the root: what runs after the op returned
// (late handlers, fire-and-forget STOREs) is nobody's waiting time.
func selfTimes(root span, spans []span) (self [numKinds]int64) {
	byKind := make([][]interval, numKinds)
	for _, s := range spans {
		lo, hi := max(s.start, root.start), min(s.end, root.end)
		if hi > lo && s.kind != kindCore {
			byKind[s.kind] = append(byKind[s.kind], interval{lo, hi})
		}
	}
	var covered []interval
	for k := numKinds - 1; k > kindCore; k-- {
		before := total(covered)
		covered = union(append(covered, byKind[k]...))
		self[k] = total(covered) - before
	}
	self[kindCore] = root.dur() - total(covered)
	return self
}

// spanStats is everything the traced pass derives from the spans.
type spanStats struct {
	ops, spans int
	// rootNs and selfNs sum the root durations and the per-kind self
	// times over the ops that have a root span.
	rootNs int64
	selfNs [numKinds]int64
	// Busy totals over every span, attributed or not.
	sends, inflights       int
	sendNs, inflightNs     int64
	unattributedNs, busyNs int64
	handlers, sendsByType  []int
	handlerSelfNs          []int64
	handlerSelfTotal       int64
	sendErrs               int
	payloadBytes           int64
}

// analyze runs the span arithmetic over a finished traced pass.
func (r *recorder) analyze() spanStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := spanStats{
		handlers:      make([]int, len(wireTypes)),
		sendsByType:   make([]int, len(wireTypes)),
		handlerSelfNs: make([]int64, len(wireTypes)),
		sendErrs:      r.sendErrs,
		payloadBytes:  r.payload,
		spans:         len(r.spans),
	}
	spans := r.spans
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].op != spans[j].op {
			return spans[i].op < spans[j].op
		}
		return spans[i].start < spans[j].start
	})
	// Sends grouped by (op, node), start-ordered: a handler's nested
	// sends are the sends its node made for its op while it ran.
	type opNode struct {
		op   uint64
		node uint16
	}
	sendsAt := make(map[opNode][]span)
	for _, s := range spans {
		switch s.kind {
		case kindSend:
			st.sends++
			st.sendNs += s.dur()
			st.sendsByType[s.typ]++
			sendsAt[opNode{s.op, s.node}] = append(sendsAt[opNode{s.op, s.node}], s)
		case kindInflight:
			st.inflights++
			st.inflightNs += s.dur()
		}
		if s.kind == kindSend || s.kind == kindHandler {
			st.busyNs += s.dur()
			if s.op == 0 {
				st.unattributedNs += s.dur()
			}
		}
	}
	for _, s := range spans {
		if s.kind != kindHandler {
			continue
		}
		self := s.dur()
		for _, snd := range sendsAt[opNode{s.op, s.node}] {
			if snd.start >= s.start && snd.end <= s.end {
				self -= snd.dur()
			}
		}
		self = max(self, 0)
		st.handlers[s.typ]++
		st.handlerSelfNs[s.typ] += self
		st.handlerSelfTotal += self
	}
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].op == spans[lo].op {
			hi++
		}
		if op := spans[lo:hi]; op[0].op != 0 {
			if i := slices.IndexFunc(op, func(s span) bool { return s.kind == kindCore }); i >= 0 {
				st.ops++
				st.rootNs += op[i].dur()
				for k, v := range selfTimes(op[i], op) {
					st.selfNs[k] += v
				}
			}
		}
		lo = hi
	}
	return st
}

// writeSpans dumps the spans as JSON lines.
func (r *recorder) writeSpans(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err != nil {
			break
		}
		line := struct {
			Workload string `json:"workload"`
			Op       uint64 `json:"op"`
			Name     string `json:"name"`
			Type     string `json:"type"`
			Node     string `json:"node"`
			Peer     string `json:"peer,omitempty"`
			Bytes    int32  `json:"bytes,omitempty"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
		}{Workload: workload, Op: s.op, Name: kindNames[s.kind], Node: string(r.peerList[s.node]),
			Bytes: s.bytes, StartNs: s.start, EndNs: s.end}
		if s.kind == kindCore || s.kind == kindP2P {
			line.Name += "." + opNames[s.typ]
			line.Type = opNames[s.typ]
		} else {
			line.Type = wireTypes[s.typ]
			line.Peer = string(r.peerList[s.peer])
		}
		err = enc.Encode(line)
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
