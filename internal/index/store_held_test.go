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
// communities and titles — count as the input's. The hub case holds
// every registration, as the index server does; the member case every
// 16th, the size of one of its sixteen members' stores. Under make
// heap-profile the last full store stays alive to the profile
// (BENCH=StoreHeld/hub for the hub's).
func BenchmarkStoreHeld(b *testing.B) {
	all := centralRegistrations(b)
	var member []*index.Document
	for i := 0; i < len(all); i += 16 {
		member = append(member, all[i])
	}
	b.Run("hub", func(b *testing.B) { benchHeld(b, all) })
	b.Run("member", func(b *testing.B) { benchHeld(b, member) })
}

func benchHeld(b *testing.B, docs []*index.Document) {
	b.ReportAllocs()
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
	// The documents are the baseline: were they collected before the
	// second reading, the store would be credited with their heap.
	runtime.KeepAlive(docs)
	held := heldStore.Len() // a corpus repeats an object now and then: one ID
	if held < len(docs)*9/10 || len(heldStore.Search("", query.MatchAll{}, 0)) != held {
		b.Fatalf("%d documents held, %d put", held, len(docs))
	}
	b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(held), "B/doc")
}

// BenchmarkStoreRegister times the batches tcp-central-mixed's set-up
// writes: the index server's store built from each community's
// registrations in sixteen batches, one per publishing peer (hub), and
// a member's store built from its share of every community, one batch
// per community (member). A fresh store per op.
func BenchmarkStoreRegister(b *testing.B) {
	const communities, objects, peers = 32, 100, 16
	docs := centralRegistrations(b)
	var hub, member [][]*index.Entry
	for c := 0; c < communities; c++ {
		comm := docs[c*objects : (c+1)*objects]
		for p := 0; p < peers; p++ {
			var batch []*index.Document
			for i := p; i < len(comm); i += peers {
				batch = append(batch, comm[i])
			}
			hub = append(hub, index.NewEntries(batch))
			if p == 0 {
				member = append(member, index.NewEntries(batch))
			}
		}
	}
	for _, bc := range []struct {
		name    string
		batches [][]*index.Entry
	}{{"hub", hub}, {"member", member}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := index.NewStore()
				for _, batch := range bc.batches {
					if err := st.PutEntries(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkStoreLoad times the write a snapshot load or a large log
// record makes: every registration tcp-central-mixed's index server
// holds put in one batch into a fresh store, over its 32 communities
// (hub), and the same registrations spread over 1024 communities
// (communities), a store of many small communities.
func BenchmarkStoreLoad(b *testing.B) {
	hub := centralRegistrations(b)
	many := make([]*index.Document, len(hub))
	for i, d := range hub {
		c := *d
		c.CommunityID = fmt.Sprintf("%s-%d", d.CommunityID, i%32)
		many[i] = &c
	}
	for _, bc := range []struct {
		name string
		docs []*index.Document
	}{{"hub", hub}, {"communities", many}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := index.NewStore().PutBatch(bc.docs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreReplace puts 200 IDs over and over into one store, the
// shape of the ruler's put probe: each put replaces the ID's entry with
// an identical copy (same), as a re-announce or a second provider's
// registration does, or with other attributes (changed).
func BenchmarkStoreReplace(b *testing.B) {
	docs := centralRegistrations(b)[:64]
	for _, bc := range []struct {
		name string
		doc  func(i int) int
	}{{"same", func(i int) int { return i % 200 }}, {"changed", func(i int) int { return i }}} {
		b.Run(bc.name, func(b *testing.B) {
			st := index.NewStore()
			put := func(i int) {
				d := *docs[bc.doc(i)%len(docs)]
				d.ID = index.DocID(fmt.Sprintf("probe-%d", i%200))
				if err := st.Put(&d); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				put(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put(i)
			}
		})
	}
}
