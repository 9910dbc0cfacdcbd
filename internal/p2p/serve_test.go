package p2p

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/transport"
)

// rawFilter is a filter whose text is whatever a peer chooses to send,
// well-formed or not; it matches everything.
type rawFilter string

func (rawFilter) Match(query.AttrSet) bool { return true }
func (f rawFilter) String() string         { return string(f) }

// malformedCount reads errors{code="query.malformed"}.
func malformedCount(reg *metrics.Registry) int64 {
	return reg.Snapshot().Label(metrics.ErrorsVecName, "query.malformed")
}

// TestMalformedFilterAnswersNothing: a search frame whose filter does
// not parse is refused on every serve path, and each refusal counts
// once as errors{code="query.malformed"}. The index server and a
// super-peer answer the client at once with no results (the super-peer
// floods nothing), and a Gnutella relay drops the query, however many
// copies of it arrive. A refusal never falls back to matching
// everything, which would hand one malformed frame a community's whole
// registry.
func TestMalformedFilterAnswersNothing(t *testing.T) {
	t.Run("indexserver", func(t *testing.T) {
		f := newCentralFixture(t, 2)
		reg := metrics.NewRegistry()
		f.server.SetMetrics(reg)
		if err := f.clients[0].Publish(doc("d1", "c", "Observer", map[string]string{"title": "Observer"})); err != nil {
			t.Fatal(err)
		}
		rs, err := f.clients[1].Search("c", rawFilter("("), SearchOptions{})
		if err != nil || len(rs) != 0 {
			t.Errorf("malformed search = %d results, %v; want none, answered", len(rs), err)
		}
		if got := malformedCount(reg); got != 1 {
			t.Errorf("errors{code=query.malformed} = %d, want 1", got)
		}
		if rs, err := f.clients[1].Search("c", rawFilter("(title=Observer)"), SearchOptions{}); err != nil || len(rs) != 1 {
			t.Errorf("well-formed search after it = %d results, %v; want 1", len(rs), err)
		}
	})
	t.Run("superpeer", func(t *testing.T) {
		f := newFTFixture(t, 3, 2)
		supers := metrics.NewRegistry()
		for _, s := range f.supers {
			s.SetMetrics(supers)
		}
		if err := f.leaves[1].Publish(doc("d1", "c", "Observer", map[string]string{"title": "Observer"})); err != nil {
			t.Fatal(err)
		}
		if err := f.leaves[3].Publish(doc("d2", "c", "Visitor", map[string]string{"title": "Visitor"})); err != nil {
			t.Fatal(err)
		}
		rs, err := f.leaves[0].Search("c", rawFilter("("), SearchOptions{})
		if err != nil || len(rs) != 0 {
			t.Errorf("malformed search = %d results, %v; want none, answered", len(rs), err)
		}
		if got := malformedCount(supers); got != 1 {
			t.Errorf("errors{code=query.malformed} = %d, want 1", got)
		}
		if got := f.reg.Snapshot().Label("transport.msgs_by_type", MsgQuery); got != 0 {
			t.Errorf("%d queries flooded for a malformed search, want 0", got)
		}
	})
	t.Run("gnutella", func(t *testing.T) {
		net := transport.NewMemNetwork()
		up, down := newStubPeer(t, net, "up"), newStubPeer(t, net, "down")
		ep, err := net.Endpoint("relay")
		if err != nil {
			t.Fatal(err)
		}
		g := NewGnutellaNode(ep, index.NewStore())
		reg := metrics.NewRegistry()
		g.SetMetrics(reg)
		g.AddNeighbor("up")
		g.AddNeighbor("down")
		if err := g.Publish(doc("d1", "c", "Observer", map[string]string{"title": "Observer"})); err != nil {
			t.Fatal(err)
		}
		q := codec.Encode(&queryPayload{GUID: 42, Origin: "origin", CommunityID: "c", Filter: "(", TTL: 3})
		up.send(t, "relay", MsgQuery, q)
		up.send(t, "relay", MsgQuery, q)
		if up.got[MsgQueryHit] != 0 || down.got[MsgQuery] != 0 {
			t.Errorf("malformed query answered %d times, forwarded %d times; want neither", up.got[MsgQueryHit], down.got[MsgQuery])
		}
		if got := malformedCount(reg); got != 1 {
			t.Errorf("errors{code=query.malformed} = %d, want 1", got)
		}
	})
}

// TestIndexServerSearchServeAllocs pins what serving a client's search
// costs the index server, on the in-memory network with no tracer,
// delivery of the search-hit included: nothing, for few matches or
// many. The request is read as views of its payload, the filter parsed
// by a pooled parser, the matches gathered in pooled scratch and the
// hit written straight from the registry's entries.
func TestIndexServerSearchServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, matches := range []int{4, 40} {
		net := transport.NewMemNetwork()
		client := newStubPeer(t, net, "client")
		ep, err := net.Endpoint("server")
		if err != nil {
			t.Fatal(err)
		}
		NewIndexServer(ep)
		regs := make([]registerPayload, matches)
		for i := range regs {
			regs[i] = registerPayload{DocID: index.DocID(fmt.Sprintf("doc-%04d", i)), CommunityID: "patterns", Title: fmt.Sprintf("Pattern %d", i),
				Attrs: query.FieldsOf(query.Attrs{"classification": {"creational"}, "name": {fmt.Sprintf("Pattern %d", i), "alias"}})}
		}
		client.send(t, "server", MsgRegisterBatch, codec.Encode(&registerBatchPayload{Docs: regs}))
		req := codec.Encode(&searchPayload{ReqID: 7, CommunityID: "patterns", Filter: "(&(classification=creational)(!(name=Visitor)))"})
		got := testing.AllocsPerRun(200, func() { client.send(t, "server", MsgSearch, req) })
		if client.got[MsgSearchHit] != 201 {
			t.Fatalf("%d search-hits for 201 searches", client.got[MsgSearchHit])
		}
		if got != 0 {
			t.Errorf("serving a search of %d matches: %v allocs, want 0", matches, got)
		}
	}
}

// TestConcurrentServesMatchOracle: searchers, each on its own TCP
// connection and each with its own filter, query one Gnutella node at
// once, round after round, and every query-hit holds exactly the
// documents Filter.Match admits among those the node shares. A TCP node
// runs one connection's handler beside another's, so a parser, a view
// or a match slice that two of them shared would hand one searcher the
// matches of another's filter; make race runs this under the race
// detector.
func TestConcurrentServesMatchOracle(t *testing.T) {
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGnutellaNode(ep, index.NewStore())
	t.Cleanup(func() { g.Close() })
	docs := patternDocs(60)
	for _, d := range docs {
		if err := g.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
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
		for _, d := range docs {
			if f.Match(d.Attrs) {
				want = append(want, d.ID)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s matches nothing: the node would send no hit", src)
		}
		searcher, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { searcher.Close() })
		hits := make(chan []index.DocID, 1)
		searcher.SetHandler(func(m transport.Message) {
			var hit queryHitPayload
			if err := hit.DecodeBinary(m.Payload); err != nil {
				t.Error(err)
				return
			}
			var ids []index.DocID
			for _, r := range hit.Results {
				ids = append(ids, r.DocID)
			}
			hits <- ids
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				q := codec.Encode(&queryPayload{GUID: uint64(1000*(i+1) + r), Origin: searcher.ID(), CommunityID: "patterns", Filter: src, TTL: 1})
				if err := searcher.Send(transport.Message{To: g.PeerID(), Type: MsgQuery, Payload: q}); err != nil {
					t.Error(err)
					return
				}
				select {
				case got := <-hits:
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Errorf("%s, round %d: hit holds %d documents, not the %d that match", src, r, len(got), len(want))
						return
					}
				case <-time.After(5 * time.Second):
					t.Errorf("%s, round %d: no hit", src, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}
