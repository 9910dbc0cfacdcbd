package dht

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/p2p/codec"
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
