package index_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/query"
)

// heldStore keeps BenchmarkStoreHeld's last store alive to the end of
// the run, so an inuse_space profile of it (make heap-profile) shows
// what the store holds.
var heldStore *index.Store

// centralRegistrations is what tcp-central-mixed's index server holds:
// 32 communities, the corpora taken in turn, of 100 objects each, every
// object's metadata — ID, community, a title and the attributes its
// community's own indexer extracts — and no XML, which stays with its
// publisher.
func centralRegistrations(b *testing.B) []*index.Document {
	const communities, objects = 32, 100
	names := corpus.Names()
	var docs []*index.Document
	for k := 0; k < communities; k++ {
		name := names[k%len(names)]
		cp, err := corpus.ByName(name, objects, 1+int64(k))
		if err != nil {
			b.Fatal(err)
		}
		c, err := core.NewCommunity(core.CommunitySpec{Name: fmt.Sprintf("%s-%d", name, k), SchemaSrc: cp.SchemaSrc})
		if err != nil {
			b.Fatal(err)
		}
		ix, err := c.Indexer()
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range cp.Objects {
			attrs, err := ix.Extract(o.Doc)
			if err != nil {
				b.Fatal(err)
			}
			keys := attrs.Keys(nil)
			title := ""
			if len(keys) > 0 {
				title = attrs.Get(keys[0])
			}
			docs = append(docs, &index.Document{ID: core.DocIDFor(c.ID, o.Doc), CommunityID: c.ID, Title: title, Attrs: attrs})
		}
	}
	return docs
}

// BenchmarkStoreHeld times putting tcp-central-mixed's registrations
// into a store one at a time, starting a fresh store whenever one holds
// them all, and reports what a full store holds: the heap it adds on
// top of the documents it was given, after a collection, per document
// held (B/doc). Strings the store shares with its input — the IDs,
// communities and titles — count as the input's. Under make
// heap-profile the full store stays alive to the profile.
func BenchmarkStoreHeld(b *testing.B) {
	docs := centralRegistrations(b)
	b.ReportAllocs()
	b.ResetTimer()
	var st *index.Store
	for i := 0; i < b.N; i++ {
		if i%len(docs) == 0 {
			st = index.NewStore()
		}
		if err := st.Put(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, heldStore = nil, nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	heldStore = index.NewStore()
	if err := heldStore.PutBatch(docs); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := heldStore.Len() // a corpus repeats an object now and then: one ID
	if held < len(docs)*9/10 || len(heldStore.Search("", query.MatchAll{}, 0)) != held {
		b.Fatalf("%d documents held, %d put", held, len(docs))
	}
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(held), "B/doc")
}
