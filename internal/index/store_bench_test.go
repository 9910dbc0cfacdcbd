package index

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/query"
)

// The BenchmarkStore* family measures the store on concurrent
// community-scoped workloads, with the result cache off and on. Run
// with:
//
//	go test -bench 'BenchmarkStore' -benchtime 2s ./internal/index/
const (
	benchCommunities = 16
	benchDocsPerComm = 200
)

func benchStore(b *testing.B, opts ...Option) *Store {
	b.Helper()
	s := NewStore(opts...)
	var docs []*Document
	for c := 0; c < benchCommunities; c++ {
		comm := fmt.Sprintf("community-%02d", c)
		for i := 0; i < benchDocsPerComm; i++ {
			docs = append(docs, &Document{
				ID:          DocID(fmt.Sprintf("d-%02d-%04d", c, i)),
				CommunityID: comm,
				Title:       fmt.Sprintf("Doc %d", i),
				XML:         "<obj>payload</obj>",
				Attrs: query.Attrs{
					"k":    {fmt.Sprintf("v%d", i%10)},
					"tags": {"alpha", fmt.Sprintf("t%d", i%5)},
				},
			})
		}
	}
	if err := s.PutBatch(docs); err != nil {
		b.Fatal(err)
	}
	return s
}

// benchSearchConcurrent: every worker loops community-scoped searches
// over a small rotating filter set — the popular-query pattern a
// community index serves under heavy read traffic.
func benchSearchConcurrent(b *testing.B, s *Store) {
	filters := make([]query.Filter, 8)
	for i := range filters {
		filters[i] = query.MustParse(fmt.Sprintf("(k=v%d)", i))
	}
	var n atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := n.Add(1)
		comm := fmt.Sprintf("community-%02d", int(w)%benchCommunities)
		i := 0
		for pb.Next() {
			got := s.Search(comm, filters[i%len(filters)], 20)
			if len(got) == 0 {
				b.Error("no results")
				return
			}
			i++
		}
	})
}

// benchMixedConcurrent: 1 put per 8 searches per worker, each worker
// pinned to one community — concurrent publishers and searchers.
func benchMixedConcurrent(b *testing.B, s *Store) {
	f := query.MustParse("(k=v1)")
	var n atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(n.Add(1))
		comm := fmt.Sprintf("community-%02d", w%benchCommunities)
		i := 0
		for pb.Next() {
			if i%8 == 7 {
				_ = s.Put(&Document{
					ID:          DocID(fmt.Sprintf("w-%02d-%06d", w, i)),
					CommunityID: comm,
					Title:       "written",
					Attrs:       query.Attrs{"k": {"v1"}},
				})
			} else {
				s.Search(comm, f, 20)
			}
			i++
		}
	})
}

func BenchmarkStoreSearch(b *testing.B) {
	benchSearchConcurrent(b, benchStore(b, WithCacheSize(0)))
}

func BenchmarkStoreSearchCached(b *testing.B) {
	benchSearchConcurrent(b, benchStore(b))
}

func BenchmarkStoreMixed(b *testing.B) {
	benchMixedConcurrent(b, benchStore(b, WithCacheSize(0)))
}

func BenchmarkStoreMixedCached(b *testing.B) {
	benchMixedConcurrent(b, benchStore(b))
}

// Ingest cost: one lock round trip per document vs per batch.
func BenchmarkStorePutSequential(b *testing.B) {
	s := NewStore(WithCacheSize(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Put(&Document{
			ID:          DocID(fmt.Sprintf("d%08d", i)),
			CommunityID: fmt.Sprintf("community-%02d", i%benchCommunities),
			Attrs:       query.Attrs{"k": {"v"}},
		})
	}
}

func BenchmarkStorePutBatch(b *testing.B) {
	const batchSize = 256
	s := NewStore(WithCacheSize(0))
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		batch := make([]*Document, 0, batchSize)
		for j := i; j < i+batchSize && j < b.N; j++ {
			batch = append(batch, &Document{
				ID:          DocID(fmt.Sprintf("d%08d", j)),
				CommunityID: fmt.Sprintf("community-%02d", j%benchCommunities),
				Attrs:       query.Attrs{"k": {"v"}},
			})
		}
		if err := s.PutBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIndexAcceleration contrasts an equality query
// (accelerated through the inverted index) with a substring query
// (full community scan) at 10k documents, one hit each, with the
// result cache off so both sides compute their answer.
func BenchmarkAblationIndexAcceleration(b *testing.B) {
	s := NewStore(WithCacheSize(0))
	for i := 0; i < 10000; i++ {
		attrs := query.Attrs{}
		attrs.Add("title", fmt.Sprintf("pattern number %d", i))
		attrs.Add("classification", []string{"creational", "structural", "behavioral"}[i%3])
		if err := s.Put(&Document{
			ID: DocID(fmt.Sprintf("d%05d", i)), CommunityID: "c", Attrs: attrs,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("indexed-equality", func(b *testing.B) {
		f := query.MustParse("(title=pattern number 5000)")
		for i := 0; i < b.N; i++ {
			if rs := s.Search("c", f, 0); len(rs) != 1 {
				b.Fatalf("hits = %d", len(rs))
			}
		}
	})
	b.Run("scan-substring", func(b *testing.B) {
		f := query.MustParse("(title~=number 5000)")
		for i := 0; i < b.N; i++ {
			if rs := s.Search("c", f, 0); len(rs) != 1 {
				b.Fatalf("hits = %d", len(rs))
			}
		}
	})
}
