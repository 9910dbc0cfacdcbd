// Package repro's root benchmark suite: one testing.B benchmark per
// reproduced figure/table (see DESIGN.md §4 and EXPERIMENTS.md). The
// F-benchmarks exercise the per-figure pipeline operation; the
// E-benchmarks run the corresponding experiment workload. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stylegen"
	"repro/internal/xsd"
)

// BenchmarkF1ObjectPipeline measures the Fig. 1 loop: build a
// schema-valid object from form values, validate, extract indexed
// attributes, render the view.
func BenchmarkF1ObjectPipeline(b *testing.B) {
	schema := xsd.MustParseString(corpus.PatternSchemaSrc)
	ix, err := stylegen.NewIndexer(schema, "")
	if err != nil {
		b.Fatal(err)
	}
	values := map[string][]string{
		"name":           {"Observer"},
		"classification": {"behavioral"},
		"intent":         {"Define a one-to-many dependency between objects"},
		"keywords":       {"notification"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := stylegen.BuildObject(schema, values)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ix.Extract(obj); err != nil {
			b.Fatal(err)
		}
		if _, err := stylegen.ViewHTML(obj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2FormGeneration measures Fig. 2's generative step: schema
// through the default create stylesheet to an HTML form.
func BenchmarkF2FormGeneration(b *testing.B) {
	schema := xsd.MustParseString(corpus.PatternSchemaSrc)
	sheet := stylegen.DefaultCreate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sheet.Apply(schema.Doc()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF3CommunityValidate measures Fig. 3 enforcement: validating
// a community object against the root schema.
func BenchmarkF3CommunityValidate(b *testing.B) {
	root := core.RootCommunity()
	c, err := core.NewCommunity(core.CommunitySpec{Name: "mp3", SchemaSrc: corpus.SongSchemaSrc})
	if err != nil {
		b.Fatal(err)
	}
	obj, _ := c.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := root.Schema.Validate(obj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1CommunityDiscovery measures one full
// discover-and-join (root search + community download) on an 8-peer
// centralized network.
func BenchmarkE1CommunityDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := sim.NewCluster(sim.Config{Peers: 8, Protocol: sim.Centralized, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.SeedCommunity(0, core.CommunitySpec{Name: "m", SchemaSrc: corpus.SongSchemaSrc}); err != nil {
			b.Fatal(err)
		}
		if n, err := c.DiscoverAndJoinAll("m", 7); err != nil || n != 8 {
			b.Fatalf("joined %d: %v", n, err)
		}
	}
}

// BenchmarkE2MetadataRecall measures metadata query evaluation over
// the indexed 115-pattern corpus.
func BenchmarkE2MetadataRecall(b *testing.B) {
	schema := xsd.MustParseString(corpus.PatternSchemaSrc)
	ix, err := stylegen.NewIndexer(schema, "")
	if err != nil {
		b.Fatal(err)
	}
	store := index.NewStore()
	for i, o := range corpus.DesignPatterns(115, 21).Objects {
		attrs, err := ix.Extract(o.Doc)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Put(&index.Document{
			ID: index.DocID(fmt.Sprintf("p%03d", i)), CommunityID: "patterns", Attrs: attrs,
		}); err != nil {
			b.Fatal(err)
		}
	}
	f := query.MustParse("(&(classification=behavioral)(keywords=notification))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := store.Search("patterns", f, 0); len(rs) == 0 {
			b.Fatal("no results")
		}
	}
}

// benchProtocolQuery measures one community-wide query on an N-peer
// network of the given protocol (the E3 unit operation).
func benchProtocolQuery(b *testing.B, proto sim.Protocol, peers, ttl int) {
	b.Helper()
	c, err := sim.NewCluster(sim.Config{Peers: peers, Protocol: proto, Degree: 4, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, core.CommunitySpec{Name: "patterns", SchemaSrc: corpus.PatternSchemaSrc})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.DiscoverAndJoinAll("patterns", peers); err != nil {
		b.Fatal(err)
	}
	if _, err := c.PublishRoundRobin(comm.ID, corpus.DesignPatterns(23, 31).Objects); err != nil {
		b.Fatal(err)
	}
	f := query.MustParse("(classification=behavioral)")
	base := c.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SearchFrom(i%peers, comm.ID, f, p2p.SearchOptions{TTL: ttl}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	msgs := c.Metrics().Delta(base).Counter("transport.msgs_delivered")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
}

// BenchmarkE3ProtocolCost sweeps the E3 grid: protocol x network size.
func BenchmarkE3ProtocolCost(b *testing.B) {
	for _, proto := range []sim.Protocol{sim.Centralized, sim.Gnutella} {
		for _, peers := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/peers=%d", proto, peers), func(b *testing.B) {
				benchProtocolQuery(b, proto, peers, 7)
			})
		}
	}
}

// BenchmarkE4IndexSelectivity measures indexing-transform extraction,
// the per-object cost that the searchable-field marking bounds.
func BenchmarkE4IndexSelectivity(b *testing.B) {
	schema := xsd.MustParseString(corpus.PatternSchemaSrc)
	ix, err := stylegen.NewIndexer(schema, "")
	if err != nil {
		b.Fatal(err)
	}
	obj := corpus.DesignPatterns(1, 1).Objects[0].Doc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Extract(obj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Replication measures one download-replication (Retrieve +
// republish), the operation whose repetition drives availability.
func BenchmarkE5Replication(b *testing.B) {
	c, err := sim.NewCluster(sim.Config{Peers: 4, Protocol: sim.Gnutella, Degree: 3, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, core.CommunitySpec{Name: "m", SchemaSrc: corpus.PatternSchemaSrc})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.DiscoverAndJoinAll("m", 7); err != nil {
		b.Fatal(err)
	}
	obj := corpus.DesignPatterns(1, 5).Objects[0]
	docID, err := c.Servents[0].Publish(comm.ID, obj.Doc.Clone(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate downloader; store dedup makes repeats cheap but the
		// network path is exercised every time.
		sv := c.Servents[1+i%3]
		if _, err := sv.Retrieve(docID, c.Servents[0].PeerID()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6PipelineThroughput measures the full servent hot path:
// schema validation + indexing + publish into a local store.
func BenchmarkE6PipelineThroughput(b *testing.B) {
	schema := xsd.MustParseString(corpus.PatternSchemaSrc)
	ix, err := stylegen.NewIndexer(schema, "")
	if err != nil {
		b.Fatal(err)
	}
	store := index.NewStore()
	objs := corpus.DesignPatterns(100, 6).Objects
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		if err := schema.Validate(o.Doc); err != nil {
			b.Fatal(err)
		}
		attrs, err := ix.Extract(o.Doc)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Put(&index.Document{
			ID: index.DocID(fmt.Sprintf("d%d", i%len(objs))), CommunityID: "c", Attrs: attrs,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7PatternCaseStudy measures a rich conjunctive query on the
// §V case-study deployment.
func BenchmarkE7PatternCaseStudy(b *testing.B) {
	c, err := sim.NewCluster(sim.Config{Peers: 6, Protocol: sim.Centralized, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	comm, err := c.SeedCommunity(0, core.CommunitySpec{Name: "dp", SchemaSrc: corpus.PatternSchemaSrc})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.DiscoverAndJoinAll("dp", 7); err != nil {
		b.Fatal(err)
	}
	if _, err := c.PublishRoundRobin(comm.ID, corpus.DesignPatterns(115, 21).Objects); err != nil {
		b.Fatal(err)
	}
	f := query.MustParse("(&(classification=behavioral)(participants=Subject))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SearchFrom(i%6, comm.ID, f, p2p.SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8ProtocolIndependence measures the same query on both
// protocols back to back (the E8 parity workload's unit op).
func BenchmarkE8ProtocolIndependence(b *testing.B) {
	for _, proto := range []sim.Protocol{sim.Centralized, sim.Gnutella} {
		b.Run(proto.String(), func(b *testing.B) {
			benchProtocolQuery(b, proto, 6, 7)
		})
	}
}

// BenchmarkAblationIndexAcceleration contrasts an equality query
// (accelerated through the inverted index) with a substring query
// (full community scan) at 10k documents: the design choice DESIGN.md
// §5 calls out.
func BenchmarkAblationIndexAcceleration(b *testing.B) {
	store := index.NewStore()
	for i := 0; i < 10000; i++ {
		attrs := query.Attrs{}
		attrs.Add("title", fmt.Sprintf("pattern number %d", i))
		attrs.Add("classification", []string{"creational", "structural", "behavioral"}[i%3])
		if err := store.Put(&index.Document{
			ID: index.DocID(fmt.Sprintf("d%05d", i)), CommunityID: "c", Attrs: attrs,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("indexed-equality", func(b *testing.B) {
		f := query.MustParse("(title=pattern number 5000)")
		for i := 0; i < b.N; i++ {
			if rs := store.Search("c", f, 0); len(rs) != 1 {
				b.Fatalf("hits = %d", len(rs))
			}
		}
	})
	b.Run("scan-substring", func(b *testing.B) {
		f := query.MustParse("(title~=number 5000)")
		for i := 0; i < b.N; i++ {
			if rs := store.Search("c", f, 0); len(rs) != 1 {
				b.Fatalf("hits = %d", len(rs))
			}
		}
	})
}

// BenchmarkAblationProtocolFastTrack places the super-peer hybrid
// between the two extremes of E3 (same workload as BenchmarkE3).
func BenchmarkAblationProtocolFastTrack(b *testing.B) {
	benchProtocolQuery(b, sim.FastTrack, 32, 7)
}

// BenchmarkExperimentTables runs the full table generators themselves
// (the artifact EXPERIMENTS.md records); heavyweight, hence sub-benches
// only over the cheap ones.
func BenchmarkExperimentTables(b *testing.B) {
	for _, id := range []string{"F1", "F2", "F3"} {
		r, ok := bench.ByID(id)
		if !ok {
			b.Fatalf("missing %s", id)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
