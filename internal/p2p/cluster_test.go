package p2p

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/transport"
)

// patternDocs is n design-pattern documents of community "patterns",
// indexed on the corpus's six searchable fields.
func patternDocs(n int) []*index.Document {
	docs := make([]*index.Document, n)
	for i, o := range corpus.DesignPatterns(n, 1).Objects {
		attrs := query.Attrs{}
		for _, field := range []string{"name", "classification", "intent", "keywords", "applicability", "participants"} {
			for _, el := range o.Doc.ChildrenNamed(field) {
				attrs.Add(field, strings.TrimSpace(el.Text()))
			}
		}
		docs[i] = &index.Document{ID: index.DocID(fmt.Sprintf("sha1-%036d", i)), CommunityID: "patterns", Title: attrs.Get("name"), Attrs: attrs}
	}
	return docs
}

// floodCluster builds 24 Gnutella peers on the in-memory network, in a
// ring with chords (each peer linked to the next and to the fifth
// next), sharing 240 design-pattern documents round robin, and the six
// filters of internal/dht's searchCluster: the flood counterpart of
// that DHT cluster. Searches run with a TTL of one hop per peer: the
// in-memory network delivers depth first, so a peer may first hear a
// query down a long path with little TTL left and drop the copies that
// come later with more. It returns each filter's match count too.
func floodCluster(tb testing.TB) ([]*GnutellaNode, []query.Filter, []int) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	return newFloodCluster(tb, func(i int) (transport.Endpoint, error) {
		return net.Endpoint(transport.PeerID(fmt.Sprintf("127.0.0.1:%d", 7000+i)))
	})
}

// tcpFloodCluster is floodCluster on loopback TCP: the ruler's
// tcp-gnutella-flood deployment without its servents and its oracle.
func tcpFloodCluster(tb testing.TB) ([]*GnutellaNode, []query.Filter, []int) {
	return newFloodCluster(tb, func(int) (transport.Endpoint, error) {
		return transport.ListenTCP("127.0.0.1:0")
	})
}

// newFloodCluster builds floodCluster's network on the endpoints listen
// makes, and searches it once for every document.
func newFloodCluster(tb testing.TB, listen func(i int) (transport.Endpoint, error)) ([]*GnutellaNode, []query.Filter, []int) {
	nodes := make([]*GnutellaNode, 24)
	for i := range nodes {
		ep, err := listen(i)
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = NewGnutellaNode(ep, index.NewStore())
		tb.Cleanup(func() { nodes[i].Close() })
	}
	for i, nd := range nodes {
		for _, j := range []int{(i + 1) % len(nodes), (i + 5) % len(nodes)} {
			nd.AddNeighbor(nodes[j].PeerID())
			nodes[j].AddNeighbor(nd.PeerID())
		}
	}
	docs := patternDocs(240)
	for i, d := range docs {
		if err := nodes[i%len(nodes)].Publish(d); err != nil {
			tb.Fatal(err)
		}
	}
	var filters []query.Filter
	var matches []int
	for _, src := range []string{
		"(classification=behavioral)", "(classification=creational)", "(classification=structural)",
		"(keywords=wrapper)", "(&(classification=behavioral)(keywords=undo))", "(name=*)",
	} {
		f := query.MustParse(src)
		n := 0
		for _, d := range docs {
			if f.Match(d.Attrs) {
				n++
			}
		}
		filters, matches = append(filters, f), append(matches, n)
	}
	if rs, err := nodes[5].Search("patterns", filters[5], SearchOptions{TTL: len(nodes), Limit: len(docs)}); err != nil || len(rs) != len(docs) {
		tb.Fatalf("warm-up search: %d of %d results, %v", len(rs), len(docs), err)
	}
	return nodes, filters, matches
}

// BenchmarkFloodSearchCluster times searches on floodCluster's network,
// from every peer in turn. Its allocs/op is what `make alloc-profile
// PKG=./internal/p2p BENCH=FloodSearchCluster` breaks down by call
// site; most of it is the originator's (relays forward hits as raw
// bytes, and serve a query in pooled scratch).
func BenchmarkFloodSearchCluster(b *testing.B) {
	nodes, filters, _ := floodCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%len(nodes)].Search("patterns", filters[i%len(filters)], SearchOptions{TTL: len(nodes)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFloodSearchTCP is BenchmarkFloodSearchCluster on loopback
// TCP: `make alloc-profile PKG=./internal/p2p BENCH=FloodSearchTCP`
// attributes the TCP flood's allocations — reader, relays, hits —
// without the ruler's servents and oracle. As in the ruler, a search's
// limit is its filter's match count, so it ends when the last hit
// arrives, never by timeout.
func BenchmarkFloodSearchTCP(b *testing.B) {
	nodes, filters, matches := tcpFloodCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % len(filters)
		rs, err := nodes[i%len(nodes)].Search("patterns", filters[f], SearchOptions{TTL: len(nodes), Limit: matches[f]})
		if err != nil || len(rs) < matches[f] {
			b.Fatalf("search %d: %d of %d results, %v", i, len(rs), matches[f], err)
		}
	}
}
