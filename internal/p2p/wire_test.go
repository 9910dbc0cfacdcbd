package p2p

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// oracleAttrs is the map decoder the frames used before attribute sets
// went flat, verbatim but for its name: the reference Reader.Fields is
// held to.
func oracleAttrs(r *codec.Reader) query.Attrs {
	n := r.Count(2)
	if r.Err() != nil || n == 0 {
		return nil
	}
	a := make(query.Attrs, n)
	for i := 0; i < n; i++ {
		k := r.String()
		nv := r.Count(1)
		if r.Err() != nil {
			return nil
		}
		vals := make([]string, 0, nv)
		for j := 0; j < nv; j++ {
			vals = append(vals, r.String())
		}
		a[k] = vals
	}
	if r.Err() != nil {
		return nil
	}
	return a
}

// TestDecodeMatchesMapOracle: the results of every sample hit frame
// decode to flat forms whose maps are what the old map decoder reads
// from the same bytes, a key with no values and a multi-valued key
// among them.
func TestDecodeMatchesMapOracle(t *testing.T) {
	checked := 0
	for which, frames := range fuzzSeeds() {
		for _, f := range frames {
			data := codec.Encode(f)
			got, _ := codec.Decode(codec.Default, fuzzTypes[which], data)
			var rs []Result
			switch got := got.(type) {
			case *searchHitPayload:
				rs = got.Results
			case *queryHitPayload:
				rs = got.Results
			default:
				continue
			}
			r := codec.NewReader(data)
			r.Uvarint() // ReqID or GUID
			if n := r.Count(6); n != len(rs) {
				t.Fatalf("%s: %d results decoded, %d encoded", fuzzTypes[which], len(rs), n)
			}
			for _, res := range rs {
				for range 4 { // DocID, Provider, CommunityID, Title
					_ = r.String()
				}
				if want := oracleAttrs(r); !reflect.DeepEqual(res.Attrs.Map(), want) {
					t.Errorf("%s: %s decoded to %v, the map decoder reads %v", fuzzTypes[which], res.DocID, res.Attrs.Map(), want)
				}
				r.Uvarint() // Hops
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no sample frame carries results")
	}
}

// TestAnswersEncodeAsResults: the hits a node answers from its store
// are written straight from its entries, and encode to the bytes of the
// results they stand for — a Gnutella node's and a super-peer's flood
// hits, and an index server's search-hit, limited or not.
func TestAnswersEncodeAsResults(t *testing.T) {
	docs := make([]*index.Document, 4)
	for i := range docs {
		docs[i] = &index.Document{ID: index.DocID(fmt.Sprintf("doc-%d", i)), CommunityID: "c", Title: fmt.Sprintf("T%d", i),
			Attrs: query.Attrs{"k": {"v"}, "multi": {"x", fmt.Sprint(i)}, "none": {}}}
	}
	regs := make([]registerPayload, len(docs))
	for i, d := range docs {
		regs[i] = registerPayloadFor(index.NewEntry(d))
	}
	net := transport.NewMemNetwork()
	endpoint := func(id transport.PeerID) transport.Endpoint {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	g := NewGnutellaNode(endpoint("gnutella"), index.NewStore())
	if err := g.PublishBatch(docs); err != nil {
		t.Fatal(err)
	}
	sp := NewSuperPeer(endpoint("superpeer"))
	sp.register("leaf", regs)
	sp.register("leaf2", regs[1:2])
	is := NewIndexServer(endpoint("indexserver"))
	is.register("leaf", regs)
	is.register("leaf2", regs[1:2])

	// want is what the answer must encode to: each document once per
	// provider, in ID order, the providers in registration order.
	want := func(providers map[index.DocID][]transport.PeerID, limit, hops int) []Result {
		var rs []Result
		for _, d := range docs {
			for _, p := range providers[d.ID] {
				if limit == 0 || len(rs) < limit {
					rs = append(rs, Result{DocID: d.ID, Provider: p, CommunityID: d.CommunityID, Title: d.Title,
						Attrs: query.FieldsOf(d.Attrs), Hops: hops})
				}
			}
		}
		return rs
	}
	self := make(map[index.DocID][]transport.PeerID)
	for _, d := range docs {
		self[d.ID] = []transport.PeerID{"gnutella"}
	}
	for name, c := range map[string]struct {
		from        answerer
		providers   map[index.DocID][]transport.PeerID
		limit, hops int
	}{
		"gnutella":          {g, self, 0, 3},
		"superpeer":         {&sp.registry, sp.providers, 0, 2},
		"indexserver":       {&is.registry, is.providers, 0, 0},
		"indexserver limit": {&is.registry, is.providers, 3, 0},
	} {
		got, n, _ := appendHit(nil, 7, c.from, "c", []byte("(*)"), c.limit, c.hops)
		results := want(c.providers, c.limit, c.hops)
		if wanted := codec.Encode(&queryHitPayload{GUID: 7, Results: results}); n != len(results) || !bytes.Equal(got, wanted) {
			t.Errorf("%s: %d answers encode to\n%x\nthe %d results to\n%x", name, n, got, len(results), wanted)
		}
	}
	// The super-peer's own leaves' results, which it merges with its
	// flood's, share the entries' attribute sets.
	if rs := sp.search("c", query.MatchAll{}, 0); len(rs) != 5 || !rs[0].Attrs.Equal(query.FieldsOf(docs[0].Attrs)) {
		t.Errorf("super-peer search = %+v", rs)
	}
}
