package dht

import (
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestHolderReadsTheRequestInPlace: a holder serves a FIND_VALUE from
// views of its borrowed payload and keeps nothing of it once the
// handler returns. The payload is overwritten after the handler, and
// everything the holder kept is read again: the span that names the
// request's community, the posting lists the filter's attribute
// created, and the reply the asker holds a copy of; a second request
// through those lists gets the same reply.
func TestHolderReadsTheRequestInPlace(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("holder")
	if err != nil {
		t.Fatal(err)
	}
	holder := NewNode(ep, index.NewStore(), Config{K: 4, Alpha: 2})
	tr := trace.New("holder", "dht", trace.WithSampling(1))
	holder.SetTracer(tr)
	asker, err := net.Endpoint("asker")
	if err != nil {
		t.Fatal(err)
	}
	var replies [][]byte
	asker.SetHandler(func(m transport.Message) { replies = append(replies, slices.Clone(m.Payload)) })

	key := KeyForCommunity("patterns")
	recs := []p2p.Result{rec(1, "peerA"), rec(2, "peerB"), rec(3, "peerC")}
	holder.records.put(key, recs, holder.Clock().Now())
	req := codec.Encode(&findValuePayload{ReqID: 5, Key: key, CommunityID: "patterns", Filter: "(classification=behavioral)"})
	serve := func(payload []byte) {
		holder.handle(transport.Message{From: "asker", To: "holder", Type: MsgFindValue, Payload: payload, TraceID: 9, SpanID: 1})
		for i := range payload {
			payload[i] = ^payload[i]
		}
	}
	serve(slices.Clone(req))
	serve(slices.Clone(req))

	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2", len(replies))
	}
	for i, b := range replies {
		var reply findValueReplyPayload
		if err := reply.DecodeBinary(b); err != nil || reply.ReqID != 5 || len(reply.Records) != len(recs) {
			t.Fatalf("reply %d: %v, %+v", i, err, reply)
		}
		for j := range recs {
			if got := reply.Records[j]; got.DocID != recs[j].DocID || !got.Attrs.Equal(recs[j].Attrs) {
				t.Errorf("reply %d record %d = %+v, want %+v", i, j, got, recs[j])
			}
		}
	}
	spans := 0
	for _, sp := range tr.Snapshot() {
		if sp.Op == "findvalue.serve" {
			spans++
			if sp.Community != "patterns" {
				t.Errorf("span community %q, want patterns", sp.Community)
			}
		}
	}
	if spans != 2 {
		t.Errorf("%d findvalue.serve spans, want 2", spans)
	}
	lists := holder.records.byKey[key].lists
	if len(lists) != 1 || lists["classification"] == nil {
		t.Errorf("posting lists keyed %v, want classification", slices.Collect(maps.Keys(lists)))
	}
}

// TestFindValueServeAllocs pins what serving a FIND_VALUE costs a
// holder of the key, on the in-memory network with no tracer, delivery
// of the reply included: nothing, whether it ships the matching records
// or only their digest. The request is read as views of its payload,
// its filter parsed by the pooled serve scratch's parser, and the
// records gathered and the reply encoded in that scratch.
func TestFindValueServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("holder")
	if err != nil {
		t.Fatal(err)
	}
	holder := NewNode(ep, index.NewStore(), Config{K: 4, Alpha: 2})
	asker, err := net.Endpoint("asker")
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	asker.SetHandler(func(transport.Message) { replies++ })
	key := KeyForCommunity("patterns")
	holder.records.put(key, patternRecords(40, "asker"), holder.Clock().Now())
	for _, digestOnly := range []bool{false, true} {
		req := codec.Encode(&findValuePayload{ReqID: 5, Key: key, CommunityID: "patterns",
			Filter: "(&(classification=behavioral)(!(name=Visitor)))", DigestOnly: digestOnly})
		replies = 0
		got := testing.AllocsPerRun(200, func() {
			if err := asker.Send(transport.Message{To: "holder", Type: MsgFindValue, Payload: req}); err != nil {
				t.Fatal(err)
			}
		})
		if replies != 201 {
			t.Fatalf("%d replies to 201 requests", replies)
		}
		if got != 0 {
			t.Errorf("serving a FIND_VALUE (digest only %v): %v allocs, want 0", digestOnly, got)
		}
	}
}

// TestMalformedFindValueCounted: a holder answers a FIND_VALUE whose
// filter does not parse with contacts and no records, never with every
// record of the key, and counts the refusal once as
// errors{code="query.malformed"}.
func TestMalformedFindValueCounted(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("holder")
	if err != nil {
		t.Fatal(err)
	}
	holder := NewNode(ep, index.NewStore(), Config{K: 4, Alpha: 2})
	reg := metrics.NewRegistry()
	holder.SetMetrics(reg)
	asker, err := net.Endpoint("asker")
	if err != nil {
		t.Fatal(err)
	}
	var reply findValueReplyPayload
	asker.SetHandler(func(m transport.Message) {
		if err := reply.DecodeBinary(m.Payload); err != nil {
			t.Error(err)
		}
	})
	key := KeyForCommunity("patterns")
	holder.records.put(key, []p2p.Result{rec(1, "peerA"), rec(2, "peerB")}, holder.Clock().Now())
	req := codec.Encode(&findValuePayload{ReqID: 5, Key: key, CommunityID: "patterns", Filter: "("})
	if err := asker.Send(transport.Message{To: "holder", Type: MsgFindValue, Payload: req}); err != nil {
		t.Fatal(err)
	}
	if reply.ReqID != 5 || len(reply.Records) != 0 {
		t.Errorf("reply %d with %d records, want reply 5 with none", reply.ReqID, len(reply.Records))
	}
	if got := reg.Snapshot().Label(metrics.ErrorsVecName, "query.malformed"); got != 1 {
		t.Errorf("errors{code=query.malformed} = %d, want 1", got)
	}
}

// TestConcurrentServesMatchOracle: searchers, each on its own TCP
// connection and each with its own filter, send FIND_VALUEs to one
// holder at once, round after round, and every reply holds exactly the
// records Filter.Match admits among the key's. A TCP node runs one
// connection's handler beside another's, so a parser, a view or a
// record slice that two of them shared would hand one searcher the
// records of another's filter; make race runs this under the race
// detector.
func TestConcurrentServesMatchOracle(t *testing.T) {
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	holder := NewNode(ep, index.NewStore(), Config{K: 4, Alpha: 2})
	t.Cleanup(func() { holder.Close() })
	key := KeyForCommunity("patterns")
	recs := patternRecords(60, "provider")
	holder.records.put(key, recs, holder.Clock().Now())
	const rounds = 40
	var wg sync.WaitGroup
	for i, src := range []string{
		"(classification=creational)",
		"(&(classification=behavioral)(!(name=Visitor)))",
		"(|(name=Builder)(name=Adapter)(keywords=undo)(keywords=wrapper))",
		"(!(|(classification=structural)(classification=behavioral)))",
		"(name=*)",
		"(&(name=*)(|(classification=structural)(&(keywords=*)(!(classification=creational)))))",
	} {
		f := query.MustParse(src)
		var want []index.DocID
		for j := range recs {
			if f.Match(&recs[j].Attrs) {
				want = append(want, recs[j].DocID)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s matches nothing", src)
		}
		slices.Sort(want)
		searcher, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { searcher.Close() })
		replies := make(chan []index.DocID, 1)
		searcher.SetHandler(func(m transport.Message) {
			var reply findValueReplyPayload
			if err := reply.DecodeBinary(m.Payload); err != nil {
				t.Error(err)
				return
			}
			var ids []index.DocID
			for _, r := range reply.Records {
				ids = append(ids, r.DocID)
			}
			replies <- ids
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				req := codec.Encode(&findValuePayload{ReqID: uint64(1000*(i+1) + r), Key: key, CommunityID: "patterns", Filter: src})
				if err := searcher.Send(transport.Message{To: holder.PeerID(), Type: MsgFindValue, Payload: req}); err != nil {
					t.Error(err)
					return
				}
				select {
				case got := <-replies:
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Errorf("%s, round %d: reply holds %d records, not the %d that match", src, r, len(got), len(want))
						return
					}
				case <-time.After(5 * time.Second):
					t.Errorf("%s, round %d: no reply", src, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}
