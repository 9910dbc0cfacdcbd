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

// floodCluster builds 24 Gnutella peers on the in-memory network, in a
// ring with chords (each peer linked to the next and to the fifth
// next), sharing 240 design-pattern documents round robin, and the six
// filters of internal/dht's searchCluster: the flood counterpart of
// that DHT cluster. Searches run with a TTL of one hop per peer: the
// in-memory network delivers depth first, so a peer may first hear a
// query down a long path with little TTL left and drop the copies that
// come later with more.
func floodCluster(tb testing.TB) ([]*GnutellaNode, []query.Filter) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	nodes := make([]*GnutellaNode, 24)
	for i := range nodes {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("127.0.0.1:%d", 7000+i)))
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = NewGnutellaNode(ep, index.NewStore())
	}
	for i, nd := range nodes {
		for _, j := range []int{(i + 1) % len(nodes), (i + 5) % len(nodes)} {
			nd.AddNeighbor(nodes[j].PeerID())
			nodes[j].AddNeighbor(nd.PeerID())
		}
	}
	for i, o := range corpus.DesignPatterns(240, 1).Objects {
		attrs := query.Attrs{}
		for _, field := range []string{"name", "classification", "intent", "keywords", "applicability", "participants"} {
			for _, el := range o.Doc.ChildrenNamed(field) {
				attrs.Add(field, strings.TrimSpace(el.Text()))
			}
		}
		d := &index.Document{ID: index.DocID(fmt.Sprintf("sha1-%036d", i)), CommunityID: "patterns", Title: attrs.Get("name"), Attrs: attrs}
		if err := nodes[i%len(nodes)].Publish(d); err != nil {
			tb.Fatal(err)
		}
	}
	var filters []query.Filter
	for _, src := range []string{
		"(classification=behavioral)", "(classification=creational)", "(classification=structural)",
		"(keywords=wrapper)", "(&(classification=behavioral)(keywords=undo))", "(name=*)",
	} {
		filters = append(filters, query.MustParse(src))
	}
	if rs, err := nodes[5].Search("patterns", filters[5], SearchOptions{TTL: len(nodes)}); err != nil || len(rs) != 240 {
		tb.Fatalf("warm-up search: %d of 240 results, %v", len(rs), err)
	}
	return nodes, filters
}

// BenchmarkFloodSearchCluster times searches on floodCluster's network,
// from every peer in turn. Its allocs/op is what `make alloc-profile
// PKG=./internal/p2p BENCH=FloodSearchCluster` breaks down by call
// site; most of it is the originator's (relays forward hits as raw
// bytes).
func BenchmarkFloodSearchCluster(b *testing.B) {
	nodes, filters := floodCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%len(nodes)].Search("patterns", filters[i%len(filters)], SearchOptions{TTL: len(nodes)}); err != nil {
			b.Fatal(err)
		}
	}
}
