package p2p

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsim"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// stubPeer is a bare endpoint that counts what reaches it by wire type.
type stubPeer struct {
	ep  transport.Endpoint
	got map[string]int
}

func newStubPeer(t *testing.T, net *transport.MemNetwork, id transport.PeerID) *stubPeer {
	t.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	s := &stubPeer{ep: ep, got: make(map[string]int)}
	ep.SetHandler(func(m transport.Message) { s.got[m.Type]++ })
	return s
}

func (s *stubPeer) send(t *testing.T, to transport.PeerID, typ string, payload []byte) {
	t.Helper()
	if err := s.ep.Send(transport.Message{To: to, Type: typ, Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

func sampleResults(n int) []Result {
	out := make([]Result, n)
	for i := range out {
		out[i] = Result{
			DocID:       index.DocID(fmt.Sprintf("doc-%04d", i)),
			Provider:    transport.PeerID(fmt.Sprintf("peer%03d", i%7)),
			CommunityID: "patterns",
			Title:       fmt.Sprintf("Pattern %d", i),
			Attrs: query.FieldsOf(query.Attrs{
				"classification": {"creational", "structural"},
				"name":           {fmt.Sprintf("Pattern %d", i), "alias"},
				"intent":         {"decouple", "an abstraction from its implementation"},
				"empty":          {},
			}),
			Hops: i % 5,
		}
	}
	return out
}

type neighborAdder interface{ AddNeighbor(transport.PeerID) }

// floodNodes builds each kind of node that embeds the flood router.
var floodNodes = map[string]func(ep transport.Endpoint) neighborAdder{
	"gnutella":  func(ep transport.Endpoint) neighborAdder { return NewGnutellaNode(ep, index.NewStore()) },
	"superpeer": func(ep transport.Endpoint) neighborAdder { return NewSuperPeer(ep) },
}

// TestFloodRelayAndDuplicateZeroAlloc pins what a flooded frame costs a
// node it only passes through, on the in-memory network with the binary
// codec and no tracer (the style of transport's
// TestMemDeliveryZeroAlloc): relaying a query-hit one hop back and
// dropping a duplicate query allocate nothing, delivery included.
func TestFloodRelayAndDuplicateZeroAlloc(t *testing.T) {
	for name, build := range floodNodes {
		t.Run(name, func(t *testing.T) {
			net := transport.NewMemNetwork()
			up, down := newStubPeer(t, net, "up"), newStubPeer(t, net, "down")
			ep, err := net.Endpoint("relay")
			if err != nil {
				t.Fatal(err)
			}
			relay := build(ep)
			relay.AddNeighbor("up")
			relay.AddNeighbor("down")

			q := codec.Encode(&queryPayload{GUID: 42, Origin: "origin", CommunityID: "patterns", Filter: "(name=Builder)", TTL: 3, Hops: 1})
			up.send(t, "relay", MsgQuery, q)
			if down.got[MsgQuery] != 1 || up.got[MsgQuery] != 0 {
				t.Fatalf("first arrival forwarded to down=%d up=%d, want 1 and 0", down.got[MsgQuery], up.got[MsgQuery])
			}
			hit := codec.Encode(&queryHitPayload{GUID: 42, Results: sampleResults(8)})
			down.send(t, "relay", MsgQueryHit, hit) // warm the per-type counters
			if up.got[MsgQueryHit] != 1 {
				t.Fatalf("hit not relayed toward the origin: %v", up.got)
			}

			if got := testing.AllocsPerRun(200, func() { down.send(t, "relay", MsgQueryHit, hit) }); got != 0 {
				t.Errorf("relaying a query-hit: %v allocs, want 0", got)
			}
			if up.got[MsgQueryHit] < 200 {
				t.Errorf("relayed %d hits, want every one", up.got[MsgQueryHit])
			}
			if got := testing.AllocsPerRun(200, func() { down.send(t, "relay", MsgQuery, q) }); got != 0 {
				t.Errorf("dropping a duplicate query: %v allocs, want 0", got)
			}
			if down.got[MsgQuery] != 1 || up.got[MsgQuery] != 0 {
				t.Errorf("duplicate query was forwarded: down=%d up=%d", down.got[MsgQuery], up.got[MsgQuery])
			}
		})
	}
}

// TestAnswerAllocs pins what answering a remote query costs a
// Gnutella node whose store matches it many times over, delivery of
// the hit included, on the in-memory network with no tracer: the hit is
// written from the store's entries, so the count does not grow with
// the matches and no Result is built. Measured on go1.24 for 4 and 40
// matches: 5 allocations each, against 7 when every answer built a
// []Result and a frame around it; the rest is the query's handling —
// the community string, the filter's parse — and the store's one
// result slice.
func TestAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := func(matches int) float64 {
		net := transport.NewMemNetwork()
		origin := newStubPeer(t, net, "origin")
		ep, err := net.Endpoint("answerer")
		if err != nil {
			t.Fatal(err)
		}
		g := NewGnutellaNode(ep, index.NewStore())
		docs := make([]*index.Document, matches)
		for i := range docs {
			docs[i] = &index.Document{ID: index.DocID(fmt.Sprintf("doc-%04d", i)), CommunityID: "patterns", Title: fmt.Sprintf("Pattern %d", i),
				Attrs: query.Attrs{"classification": {"creational"}, "name": {fmt.Sprintf("Pattern %d", i), "alias"}}}
		}
		if err := g.PublishBatch(docs); err != nil {
			t.Fatal(err)
		}
		const runs = 200
		queries := make([][]byte, runs+1) // AllocsPerRun runs once more to warm up
		for i := range queries {
			queries[i] = codec.Encode(&queryPayload{GUID: uint64(1000 + i), Origin: "origin", CommunityID: "patterns",
				Filter: "(classification=creational)", TTL: 1})
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			origin.send(t, "answerer", MsgQuery, queries[next])
			next++
		})
		if origin.got[MsgQueryHit] != runs+1 {
			t.Fatalf("%d hits for %d queries", origin.got[MsgQueryHit], runs+1)
		}
		return got
	}
	few, many := allocs(4), allocs(40)
	if many != few {
		t.Errorf("answering 40 matches: %v allocs, 4 matches: %v; want the same", many, few)
	}
	if budget := 5.0; many > budget {
		t.Errorf("answering a query: %v allocs, want <= %v", many, budget)
	}
}

// TestHitDecodeAllocsFollowResults: decoding a hit frame allocates per
// frame, not per result or per string — 16 strings a result here.
func TestHitDecodeAllocsFollowResults(t *testing.T) {
	allocs := func(n int) float64 {
		enc := codec.Encode(&queryHitPayload{GUID: 7, Results: sampleResults(n)})
		return testing.AllocsPerRun(100, func() {
			var hit queryHitPayload
			if err := hit.DecodeBinary(enc); err != nil || len(hit.Results) != n {
				t.Fatalf("decode: %v, %d results", err, len(hit.Results))
			}
		})
	}
	for _, n := range []int{10, 40} {
		// Measured 2 on go1.24: the frame's one string, which every
		// result's strings and attribute set are cut from, and the result
		// slice. Copying each string would add 16n, a map per result 2n.
		if got, budget := allocs(n), 3.0; got > budget {
			t.Errorf("%d results (%d strings): %v allocs, want <= %v", n, 16*n, got, budget)
		}
	}
}

// resultFrames returns a fresh frame of every registered wire type that
// carries a result set, with the frame's Results field.
func resultFrames(t *testing.T) map[string]func() (codec.Frame, *[]Result) {
	t.Helper()
	out := make(map[string]func() (codec.Frame, *[]Result))
	for _, typ := range codec.Types() {
		f, _ := codec.New(typ)
		field := reflect.ValueOf(f).Elem().FieldByName("Results")
		if !field.IsValid() || field.Type() != reflect.TypeOf([]Result(nil)) {
			continue
		}
		out[typ] = func() (codec.Frame, *[]Result) {
			f, _ := codec.New(typ)
			return f, reflect.ValueOf(f).Elem().FieldByName("Results").Addr().Interface().(*[]Result)
		}
	}
	if len(out) != 2 || out[MsgQueryHit] == nil || out[MsgSearchHit] == nil {
		t.Fatalf("result-bearing frames = %v, want query-hit and search-hit", reflect.ValueOf(out).MapKeys())
	}
	return out
}

// TestReadResultsEquivalence: for every result-bearing frame, the
// shared-string decode yields results deep-equal to a per-field decode
// of the same bytes and to a round trip through encoding/json.
func TestReadResultsEquivalence(t *testing.T) {
	want := sampleResults(70)
	want[3].Attrs = query.Fields{}
	want[4] = Result{}
	for typ, fresh := range resultFrames(t) {
		f, rs := fresh()
		*rs = want
		enc := codec.Encode(f)

		shared, got := fresh()
		if err := shared.DecodeBinary(enc); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: shared-string decode differs from the encoded results", typ)
		}

		// The reference: the same bytes, one string copied per field. The
		// result set ends the frame; what precedes it is what an empty
		// frame encodes, less its zero count.
		empty, _ := fresh()
		r := codec.NewReader(enc[len(empty.AppendBinary(nil))-1:])
		perField := make([]Result, r.Count(6))
		for i := range perField {
			readResult(r, &perField[i])
		}
		if r.Err() != nil || !reflect.DeepEqual(*got, perField) {
			t.Errorf("%s: shared-string decode differs from the per-field decode (err %v)", typ, r.Err())
		}

		viaJSON, gotJSON := fresh()
		jsonRoundTrip(t, f, viaJSON)
		if !reflect.DeepEqual(*got, *gotJSON) {
			t.Errorf("%s: shared-string decode differs from encoding/json", typ)
		}
	}
}

// TestSharedValueSlicesDoNotOverlap: results cut from one frame hand
// their values out as strings sliced from the frame's one copy, never
// as slices of shared memory, so a caller appending to one key's values
// cannot write into the next key's, or the next result's.
func TestSharedValueSlicesDoNotOverlap(t *testing.T) {
	enc := codec.Encode(&queryHitPayload{GUID: 1, Results: sampleResults(2)})
	var hit queryHitPayload
	if err := hit.DecodeBinary(enc); err != nil {
		t.Fatal(err)
	}
	for _, v := range hit.Results[0].Attrs.All() {
		vals := slices.Collect(v)
		_ = append(vals[:len(vals):len(vals)], "intruder")
		if len(vals) > 0 {
			vals[0] = "intruder"
		}
	}
	if want := sampleResults(2); !reflect.DeepEqual(hit.Results, want) {
		t.Errorf("appending to result 0's values changed the results: %+v", hit.Results)
	}
}

// TestPeekMatchesDecode: the GUID a router peeks is the GUID a full
// decode reads.
func TestPeekMatchesDecode(t *testing.T) {
	const guid = 0xfeedfacecafe<<8 | 0x81 // multi-byte as a uvarint
	frames := map[string]codec.Frame{
		MsgQuery:    &queryPayload{GUID: guid, Origin: "o", CommunityID: "c", Filter: "(k=v)", TTL: 7},
		MsgQueryHit: &queryHitPayload{GUID: guid, Results: sampleResults(2)},
	}
	for typ, f := range frames {
		got, err := codec.PeekUint(codec.Encode(f))
		if err != nil || got != guid {
			t.Errorf("%s: peeked %#x, %v; want %#x", typ, got, err, uint64(guid))
		}
	}
	if _, err := codec.PeekUint(nil); err == nil {
		t.Error("peek into an empty payload succeeded")
	}
}

// TestGarbageHitRelayedDroppedAtOrigin: a query-hit with a valid GUID
// and a corrupt body passes through a relay untouched — relays do not
// look past the GUID — and is dropped where it would be decoded, at the
// origin, without disturbing what the origin has collected.
func TestGarbageHitRelayedDroppedAtOrigin(t *testing.T) {
	t.Run("binary", func(t *testing.T) { // the wire format the relay peeks into
		reg := metrics.NewRegistry()
		net := transport.NewMemNetwork(transport.WithMetrics(reg))
		var nodes [2]*GnutellaNode // origin - relay - answering stub
		for i := range nodes {
			ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("g%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = NewGnutellaNode(ep, index.NewStore())
		}
		origin, relay := nodes[0], nodes[1]
		origin.Publish(doc("mine", "c", "Mine", map[string]string{"k": "v"}))
		far, err := net.Endpoint("far")
		if err != nil {
			t.Fatal(err)
		}
		origin.AddNeighbor("g1")
		relay.AddNeighbor("g0")
		relay.AddNeighbor("far")
		good := sampleResults(3)
		far.SetHandler(func(m transport.Message) {
			if m.Type != MsgQuery {
				return
			}
			guid, err := codec.PeekUint(m.Payload)
			if err != nil {
				t.Errorf("peek: %v", err)
			}
			hit := codec.Encode(&queryHitPayload{GUID: guid, Results: good})
			garbage := hit[:len(hit)-len(hit)/3] // cut mid-result
			for _, payload := range [][]byte{garbage, hit} {
				if err := far.Send(transport.Message{To: m.From, Type: MsgQueryHit, Payload: payload}); err != nil {
					t.Error(err)
				}
			}
		})

		rs, err := origin.Search("c", query.MustParse("(k=v)"), SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// far -> relay twice, relay -> origin twice: the relay passed the
		// corrupt hit on.
		if hits := reg.Snapshot().Label("transport.msgs_by_type", MsgQueryHit); hits != 4 {
			t.Errorf("%d query-hit deliveries, want 4 (both hits relayed)", hits)
		}
		// The origin kept its own result and the good hit, nothing else.
		if len(rs) != 1+len(good) || rs[0].DocID != "mine" || !reflect.DeepEqual(rs[1:], good) {
			t.Errorf("collected %+v", rs)
		}
	})
}

// TestSeenTableAges: a GUID stays known for at least one generation and
// is forgotten after two, on the node's clock.
func TestSeenTableAges(t *testing.T) {
	clk := dsim.NewVirtualClock()
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSuperPeer(ep)
	sp.SetClock(clk)
	peer := newStubPeer(t, net, "peer")
	query := func(guid uint64) {
		peer.send(t, "node", MsgQuery, codec.Encode(&queryPayload{GUID: guid, Origin: "peer", Filter: "(k=v)", TTL: 1}))
	}
	known := func(guid uint64) bool {
		sp.floodRouter.mu.RLock()
		defer sp.floodRouter.mu.RUnlock()
		_, ok := sp.seen.lookup(guid)
		return ok
	}
	size := func() int {
		sp.floodRouter.mu.RLock()
		defer sp.floodRouter.mu.RUnlock()
		return len(sp.seen.cur) + len(sp.seen.prev)
	}

	query(1)
	clk.RunUntil(clk.Now().Add(seenGeneration - time.Second))
	query(2)
	if !known(1) || !known(2) || size() != 2 {
		t.Fatalf("within one generation: known(1)=%v known(2)=%v size=%d", known(1), known(2), size())
	}
	clk.RunUntil(clk.Now().Add(2 * time.Second)) // generation one is over
	query(3)
	if !known(1) || !known(2) || !known(3) {
		t.Errorf("one rotation must keep the previous generation: %v %v %v", known(1), known(2), known(3))
	}
	clk.RunUntil(clk.Now().Add(seenGeneration))
	query(4)
	if known(1) || known(2) || !known(3) || !known(4) || size() != 2 {
		t.Errorf("after two rotations: known = %v %v %v %v, size %d; want only 3 and 4", known(1), known(2), known(3), known(4), size())
	}
	// A long-lived node's table is bounded by its recent traffic.
	for i := 0; i < 50; i++ {
		clk.RunUntil(clk.Now().Add(seenGeneration))
		query(uint64(100 + i))
	}
	if size() != 2 {
		t.Errorf("table holds %d GUIDs after 50 idle generations, want 2", size())
	}
}

// TestSeenTableBounded: fresh GUIDs arriving faster than a generation
// ages rotate the table early, so it never holds more than two full
// generations, and it still knows the latest full generation's GUIDs.
func TestSeenTableBounded(t *testing.T) {
	var tab seenTable
	now := time.Unix(0, 0)
	const n = 3 * seenGenerationCap
	for guid := uint64(1); guid <= n; guid++ {
		tab.insert(guid, "peer", now)
		if held := len(tab.cur) + len(tab.prev); held > 2*seenGenerationCap {
			t.Fatalf("after %d fresh GUIDs the table holds %d, want at most %d", guid, held, 2*seenGenerationCap)
		}
	}
	for guid := uint64(n - seenGenerationCap + 1); guid <= n; guid++ {
		if _, ok := tab.lookup(guid); !ok {
			t.Fatalf("GUID %d of the latest %d is forgotten", guid, seenGenerationCap)
		}
	}
}

// TestFloodConcurrentFirstArrivals: when the same GUID reaches a node
// from several neighbors at once (separate connections, over TCP), the
// query is answered and forwarded once, and every hit that follows is
// relayed to the one neighbor that won the GUID. Run under -race.
func TestFloodConcurrentFirstArrivals(t *testing.T) {
	const senders, guids = 6, 50
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	node := NewGnutellaNode(ep, index.NewStore())
	node.Publish(doc("d", "c", "T", map[string]string{"k": "v"}))
	var mu sync.Mutex
	forwarded := make(map[uint64]int)
	sinkEP, err := net.Endpoint("sink")
	if err != nil {
		t.Fatal(err)
	}
	sinkEP.SetHandler(func(m transport.Message) {
		if m.Type != MsgQuery {
			return
		}
		guid, _ := codec.PeekUint(m.Payload)
		mu.Lock()
		forwarded[guid]++
		mu.Unlock()
	})
	node.AddNeighbor("sink")
	var answered atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		id := transport.PeerID(fmt.Sprintf("sender%d", s))
		sep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		sep.SetHandler(func(m transport.Message) {
			if m.Type == MsgQueryHit {
				answered.Add(1)
			}
		})
		node.AddNeighbor(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := uint64(1); g <= guids; g++ {
				q := codec.Encode(&queryPayload{GUID: g, Origin: "far", CommunityID: "c", Filter: "(k=v)", TTL: 2})
				if err := sep.Send(transport.Message{To: "node", Type: MsgQuery, Payload: q}); err != nil {
					t.Error(err)
				}
				hit := codec.Encode(&queryHitPayload{GUID: g, Results: sampleResults(1)})
				if err := sep.Send(transport.Message{To: "node", Type: MsgQueryHit, Payload: hit}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for g := uint64(1); g <= guids; g++ {
		if forwarded[g] != 1 {
			t.Errorf("GUID %d forwarded to the sink %d times, want once", g, forwarded[g])
		}
	}
	// One answer per GUID from the node's own store, plus every injected
	// hit relayed to whichever sender won that GUID.
	if got, want := answered.Load(), int64(guids+senders*guids); got != want {
		t.Errorf("senders received %d query-hits, want %d", got, want)
	}
}

// TestRelayReadsTheQueryInPlace: a relay reads a first-arrival query as
// views of its borrowed payload and keeps nothing of it once the
// handler returns. The payload is overwritten after the handler, and
// everything the relay kept is read again: the span that names the
// query's community, the reverse path a hit for it takes, and the
// forwarded query and the answer its neighbors hold copies of; the
// query's bytes arriving again are still a duplicate.
func TestRelayReadsTheQueryInPlace(t *testing.T) {
	net := transport.NewMemNetwork()
	kept := make(map[transport.PeerID][]transport.Message)
	for _, id := range []transport.PeerID{"up", "down"} {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(m transport.Message) {
			m.Payload = slices.Clone(m.Payload)
			kept[id] = append(kept[id], m)
		})
	}
	ep, err := net.Endpoint("relay")
	if err != nil {
		t.Fatal(err)
	}
	store := index.NewStore()
	if err := store.Put(&index.Document{ID: "d-1", CommunityID: "patterns", Title: "Builder", Attrs: query.Attrs{"name": {"Builder"}}}); err != nil {
		t.Fatal(err)
	}
	g := NewGnutellaNode(ep, store)
	tr := trace.New("relay", "gnutella", trace.WithSampling(1))
	g.SetTracer(tr)
	g.AddNeighbor("up")
	g.AddNeighbor("down")

	want := queryPayload{GUID: 42, Origin: "origin", CommunityID: "patterns", Filter: "(name=Builder)", TTL: 3, Hops: 1}
	enc := codec.Encode(&want)
	arrive := func(from transport.PeerID, typ string, payload []byte) {
		g.handle(transport.Message{From: from, To: "relay", Type: typ, Payload: payload, TraceID: 7, SpanID: 1})
		for i := range payload {
			payload[i] = ^payload[i]
		}
	}
	arrive("up", MsgQuery, slices.Clone(enc))
	arrive("down", MsgQuery, slices.Clone(enc)) // a duplicate: dropped
	arrive("down", MsgQueryHit, codec.Encode(&queryHitPayload{GUID: 42, Results: sampleResults(2)}))

	if len(kept["down"]) != 1 || kept["down"][0].Type != MsgQuery {
		t.Fatalf("down received %d frames, want the forwarded query", len(kept["down"]))
	}
	var fwd queryPayload
	if err := fwd.DecodeBinary(kept["down"][0].Payload); err != nil {
		t.Fatal(err)
	}
	want.TTL, want.Hops = 2, 2
	if fwd != want {
		t.Errorf("forwarded %+v, want %+v", fwd, want)
	}
	if len(kept["up"]) != 2 || kept["up"][0].Type != MsgQueryHit || kept["up"][1].Type != MsgQueryHit {
		t.Fatalf("up received %d frames, want the answer and the relayed hit", len(kept["up"]))
	}
	var answer queryHitPayload
	if err := answer.DecodeBinary(kept["up"][0].Payload); err != nil || len(answer.Results) != 1 ||
		answer.Results[0].DocID != "d-1" || answer.Results[0].Attrs.Get("name") != "Builder" {
		t.Errorf("answer %+v (%v)", answer, err)
	}
	spans := 0
	for _, sp := range tr.Snapshot() {
		if sp.Op == "query" {
			spans++
			if sp.Community != "patterns" {
				t.Errorf("span community %q, want patterns", sp.Community)
			}
		}
	}
	if spans != 1 {
		t.Errorf("%d query spans, want 1", spans)
	}
}
