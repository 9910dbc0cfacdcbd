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
// carry the store's documents instead of flat forms, and encode to the
// bytes of the results they stand for — a Gnutella node's and a
// super-peer's flood hits, and an index server's search-hit.
func TestAnswersEncodeAsResults(t *testing.T) {
	docs := make([]*index.Document, 4)
	for i := range docs {
		docs[i] = &index.Document{ID: index.DocID(fmt.Sprintf("doc-%d", i)), CommunityID: "c", Title: fmt.Sprintf("T%d", i),
			Attrs: query.Attrs{"k": {"v"}, "multi": {"x", fmt.Sprint(i)}, "none": {}}}
	}
	regs := make([]registerPayload, len(docs))
	for i, d := range docs {
		regs[i] = registerPayloadFor(d)
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
	is := NewIndexServer(endpoint("indexserver"))
	is.register("leaf", regs)

	frame := map[string]func([]Result) codec.Frame{
		"query-hit":  func(rs []Result) codec.Frame { return &queryHitPayload{GUID: 7, Results: rs} },
		"search-hit": func(rs []Result) codec.Frame { return &searchHitPayload{ReqID: 7, Results: rs} },
	}
	for name, c := range map[string]struct {
		answers []Result
		frame   string
	}{
		"gnutella":    {g.answer("c", query.MatchAll{}), "query-hit"},
		"superpeer":   {sp.answer("c", query.MatchAll{}), "query-hit"},
		"indexserver": {is.search("c", query.MatchAll{}, 0), "search-hit"},
	} {
		if len(c.answers) != len(docs) {
			t.Fatalf("%s: %d answers, want %d", name, len(c.answers), len(docs))
		}
		results := make([]Result, len(c.answers))
		for i, a := range c.answers {
			if a.src == nil || a.Attrs.Len() != 0 {
				t.Fatalf("%s: answer %s carries no document, or a flat form", name, a.DocID)
			}
			c.answers[i].Hops = 3
			results[i] = Result{DocID: a.DocID, Provider: a.Provider, CommunityID: a.CommunityID, Title: a.Title,
				Attrs: query.FieldsOf(a.src.Attrs), Hops: 3}
		}
		if got, want := codec.Encode(frame[c.frame](c.answers)), codec.Encode(frame[c.frame](results)); !bytes.Equal(got, want) {
			t.Errorf("%s: the %s answered from the store is\n%x\nthe results' is\n%x", name, c.frame, got, want)
		}
	}
}
