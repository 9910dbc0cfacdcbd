package dht

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// TestMergeEquivalence: merging sets into the set in hand gives their
// union in (DocID, Provider) order, one result per key with the latest
// set's copy, whatever order each set arrives in; each set's digest
// covers all its records and the digest in hand counts every key once.
func TestMergeEquivalence(t *testing.T) {
	tagged := func(r p2p.Result, title string) p2p.Result { r.Title = title; return r }
	a, b, c, d := rec(1, "peerA"), rec(2, "peerA"), rec(2, "peerB"), rec(3, "peerA")
	cases := []struct {
		name string
		sets [][]p2p.Result
	}{
		{"ascending", [][]p2p.Result{{a, b}, {c, d}}},
		{"descending", [][]p2p.Result{{d, c, b, a}}},
		{"interleaved", [][]p2p.Result{{a, c}, {b, d}, {a, d}}},
		{"in hand", [][]p2p.Result{{a, b, c}, {tagged(b, "later")}}},
		{"repeated in a set", [][]p2p.Result{{d, a, d, b}}},
		{"reversed after sorted", [][]p2p.Result{{b, d}, {d, c, a}}},
	}
	for _, tc := range cases {
		var sc lookupScratch
		var res []p2p.Result
		want := map[string]p2p.Result{}
		var have setDigest
		for _, set := range tc.sets {
			var digest setDigest
			for _, r := range set {
				h := recordHash(r.DocID, r.Provider)
				digest.add(h)
				k := string(r.DocID) + "\x00" + string(r.Provider)
				if _, ok := want[k]; !ok {
					have.add(h)
				}
				want[k] = r
			}
			res = sc.merge(res, slices.Clone(set))
			if got := sc.seen[len(sc.seen)-2]; got != digest {
				t.Errorf("%s: set digest %+v, want %+v", tc.name, got, digest)
			}
		}
		if sc.have != have {
			t.Errorf("%s: digest in hand %+v, want %+v", tc.name, sc.have, have)
		}
		if !slices.IsSortedFunc(res, func(x, y p2p.Result) int { return compareResults(&x, &y) }) || len(res) != len(want) {
			t.Fatalf("%s: %d results out of order or not the %d keys: %+v", tc.name, len(res), len(want), res)
		}
		for _, r := range res {
			w := want[string(r.DocID)+"\x00"+string(r.Provider)]
			if r.Title != w.Title || r.CommunityID != w.CommunityID || !r.Attrs.Equal(w.Attrs) {
				t.Errorf("%s: result %+v, want %+v", tc.name, r, w)
			}
		}
	}
}

// TestDescendingReplyMergesInLinearTime: a holder that ships its set in
// descending order costs the lookup one sort, not a move of the set in
// hand per record. A 60 000-record reply inserted record by record at
// the front moves about 1.7·10^11 bytes; sorted and merged it takes
// well under the bound even under the race detector.
func TestDescendingReplyMergesInLinearTime(t *testing.T) {
	const n = 60000
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("asker")
	if err != nil {
		t.Fatal(err)
	}
	asker := NewNode(ep, index.NewStore(), Config{K: 4, Alpha: 2})
	hostile, err := net.Endpoint("hostile")
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]p2p.Result, n)
	for i := range recs {
		recs[i] = rec(n-1-i, "holder")
		recs[i].DocID = index.DocID(fmt.Sprintf("d-%06d", n-1-i))
	}
	hostile.SetHandler(func(m transport.Message) {
		var req findValuePayload
		if m.Type != MsgFindValue || req.DecodeBinary(m.Payload) != nil {
			return
		}
		reply := codec.Encode(&findValueReplyPayload{ReqID: req.ReqID, Records: recs})
		_ = hostile.Send(transport.Message{From: "hostile", To: m.From, Type: MsgFindValueReply, Payload: reply})
	})
	asker.table.Observe("hostile")

	start := time.Now()
	got, err := asker.Search("patterns", query.MustParse("(classification=behavioral)"), p2p.SearchOptions{})
	took := time.Since(start)
	if err != nil || len(got) != n {
		t.Fatalf("%d results, want %d: %v", len(got), n, err)
	}
	for i := range got {
		if want := index.DocID(fmt.Sprintf("d-%06d", i)); got[i].DocID != want {
			t.Fatalf("result %d is %s, want %s", i, got[i].DocID, want)
		}
	}
	if took > 5*time.Second {
		t.Errorf("a %d-record descending reply took %v to merge", n, took)
	}
	t.Logf("%d-record descending reply: %v", n, took)
}
