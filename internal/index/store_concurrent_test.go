package index

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
)

// TestConcurrentMixedAcrossCommunities hammers the store with
// 12 goroutines doing mixed Put/Search/Delete/Get across 4
// communities (run under -race in CI), then verifies the surviving
// state is exactly what sequential semantics predict: each goroutine
// owns a disjoint ID space, so the final contents are deterministic.
func TestConcurrentMixedAcrossCommunities(t *testing.T) {
	const (
		goroutines = 12
		iterations = 120
		keepEvery  = 3 // delete two of every three documents written
	)
	communities := []string{"patterns", "mp3", "species", "molecules"}
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			comm := communities[g%len(communities)]
			other := communities[(g+1)%len(communities)]
			for i := 0; i < iterations; i++ {
				id := fmt.Sprintf("d-%d-%d", g, i)
				err := s.Put(doc(id, comm, "T", map[string][]string{
					"k": {fmt.Sprintf("v%d", i%7)},
				}))
				if err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				s.Search(comm, query.MustParse("(k=v1)"), 0)
				s.Search(other, query.MatchAll{}, 5)
				s.Get(DocID(id))
				s.Has(DocID(id))
				if i%keepEvery != 0 {
					if !s.Delete(DocID(id)) {
						t.Errorf("Delete(%s) = false, doc was just put", id)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	want := 0
	for g := 0; g < goroutines; g++ {
		for i := 0; i < iterations; i++ {
			if i%keepEvery == 0 {
				want++
				id := DocID(fmt.Sprintf("d-%d-%d", g, i))
				if !s.Has(id) {
					t.Fatalf("surviving doc %s missing", id)
				}
			}
		}
	}
	if got := s.Len(); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	total := 0
	for _, c := range communities {
		total += s.CommunityLen(c)
	}
	if total != want {
		t.Errorf("sum of CommunityLen = %d, want %d", total, want)
	}
	// Every survivor must be reachable through a community search.
	found := 0
	for _, c := range communities {
		found += len(s.Search(c, query.MatchAll{}, 0))
	}
	if found != want {
		t.Errorf("searchable docs = %d, want %d", found, want)
	}
}

// TestPutBatchMatchesSequential checks batch-vs-single equivalence:
// loading the same documents through PutBatch and through a Put loop
// must store identical documents and identical derived state.
func TestPutBatchMatchesSequential(t *testing.T) {
	mkDocs := func() []*Document {
		var docs []*Document
		for i := 0; i < 60; i++ {
			comm := fmt.Sprintf("c%d", i%5)
			docs = append(docs, doc(fmt.Sprintf("d%02d", i), comm, fmt.Sprintf("T%d", i), map[string][]string{
				"k":    {fmt.Sprintf("v%d", i%4)},
				"tags": {"shared token", fmt.Sprintf("t%d", i%3)},
			}))
		}
		// A duplicate ID: the batch must behave like sequential Puts
		// (last occurrence wins).
		docs = append(docs, doc("d07", "c2", "replaced", map[string][]string{"k": {"v9"}}))
		return docs
	}
	single, batch := NewStore(), NewStore()
	for _, d := range mkDocs() {
		if err := single.Put(d); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := batch.PutBatch(mkDocs()); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if !bytes.Equal(dump(t, single), dump(t, batch)) {
		t.Error("batch contents differ from sequential contents")
	}
	if single.Postings() != batch.Postings() {
		t.Errorf("postings %d != %d", single.Postings(), batch.Postings())
	}
	if single.Len() != batch.Len() {
		t.Errorf("len %d != %d", single.Len(), batch.Len())
	}
	f := query.MustParse("(k=v1)")
	for _, comm := range single.Communities() {
		ga, gb := ids(single.Search(comm, f, 0)), ids(batch.Search(comm, f, 0))
		if fmt.Sprint(ga) != fmt.Sprint(gb) {
			t.Errorf("community %s: search %v != %v", comm, ga, gb)
		}
	}
}

// TestPutBatchValidation: an invalid document rejects the whole batch
// before anything is written.
func TestPutBatchValidation(t *testing.T) {
	s := NewStore()
	err := s.PutBatch([]*Document{
		doc("ok", "c", "T", nil),
		{CommunityID: "c"}, // no ID
	})
	if err == nil {
		t.Fatal("PutBatch accepted an ID-less document")
	}
	if s.Len() != 0 {
		t.Errorf("partial batch applied: Len = %d, want 0", s.Len())
	}
}

// TestDeleteBatch removes across communities and counts only documents
// that existed.
func TestDeleteBatch(t *testing.T) {
	s := NewStore()
	var all []DocID
	for i := 0; i < 20; i++ {
		id := DocID(fmt.Sprintf("d%02d", i))
		all = append(all, id)
		if err := s.Put(doc(string(id), fmt.Sprintf("c%d", i%3), "T", map[string][]string{"k": {"v"}})); err != nil {
			t.Fatal(err)
		}
	}
	n := s.DeleteBatch(append(all[:10:10], "missing"))
	if n != 10 {
		t.Errorf("DeleteBatch = %d, want 10", n)
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d, want 10", s.Len())
	}
	for _, id := range all[:10] {
		if s.Has(id) {
			t.Errorf("deleted doc %s still present", id)
		}
	}
	if n := s.DeleteBatch(all); n != 10 {
		t.Errorf("second DeleteBatch = %d, want 10", n)
	}
	if s.Len() != 0 || s.Postings() != 0 {
		t.Errorf("after full delete: Len=%d Postings=%d, want 0/0", s.Len(), s.Postings())
	}
}

// TestCrossCommunityReplace: re-publishing an ID under a different
// community moves it without leaving a stale copy.
func TestCrossCommunityReplace(t *testing.T) {
	s := NewStore()
	if err := s.Put(doc("d1", "alpha", "A", map[string][]string{"k": {"v"}})); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doc("d1", "beta", "B", map[string][]string{"k": {"v"}})); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	got, err := s.Get("d1")
	if err != nil || got.CommunityID != "beta" {
		t.Fatalf("Get = %+v, %v; want community beta", got, err)
	}
	if n := len(s.Search("alpha", query.MatchAll{}, 0)); n != 0 {
		t.Errorf("old community still returns %d docs", n)
	}
	if n := len(s.Search("beta", query.MatchAll{}, 0)); n != 1 {
		t.Errorf("new community returns %d docs, want 1", n)
	}
	if s.CommunityLen("alpha") != 0 || s.CommunityLen("beta") != 1 {
		t.Errorf("CommunityLen alpha=%d beta=%d, want 0/1", s.CommunityLen("alpha"), s.CommunityLen("beta"))
	}
}

// TestConcurrentCrossCommunityPutKeepsOneCopy: two writers put one ID
// under two communities at once, for many IDs. However the writes
// interleave, each ID ends up stored once, under the community of the
// write that landed last.
func TestConcurrentCrossCommunityPutKeepsOneCopy(t *testing.T) {
	const n = 2000
	s := NewStore()
	for i := 0; i < n; i++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, comm := range []string{"alpha", "beta"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := s.Put(doc(fmt.Sprintf("d%04d", i), comm, "T", map[string][]string{"k": {"v"}})); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	alpha, beta := s.CommunityLen("alpha"), s.CommunityLen("beta")
	if s.Len() != n || alpha+beta != n {
		t.Fatalf("Len %d, alpha %d + beta %d: want %d documents, each in one community", s.Len(), alpha, beta, n)
	}
	inAlpha := make(map[DocID]bool)
	for _, d := range s.Search("alpha", query.MatchAll{}, 0) {
		inAlpha[d.ID] = true
	}
	both := 0
	for _, d := range s.Search("beta", query.MatchAll{}, 0) {
		if inAlpha[d.ID] {
			both++
		}
	}
	if both != 0 {
		t.Errorf("%d of %d IDs stored under both communities", both, n)
	}
}

// TestManyCommunitiesScoping: with many communities stored, each
// community's search, count and listing see exactly its own documents.
func TestManyCommunitiesScoping(t *testing.T) {
	s := NewStore()
	for i := 0; i < 40; i++ {
		comm := fmt.Sprintf("c%d", i%8)
		if err := s.Put(doc(fmt.Sprintf("d%02d", i), comm, "T", map[string][]string{"k": {"v"}})); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 8; c++ {
		comm := fmt.Sprintf("c%d", c)
		for _, d := range s.Search(comm, query.MatchAll{}, 0) {
			if d.CommunityID != comm {
				t.Errorf("search %s returned doc of %s", comm, d.CommunityID)
			}
		}
		if got := s.CommunityLen(comm); got != 5 {
			t.Errorf("CommunityLen(%s) = %d, want 5", comm, got)
		}
	}
	if got := len(s.Communities()); got != 8 {
		t.Errorf("Communities = %d, want 8", got)
	}
}

// TestSearchReturnsStoredEntries: a search — community-scoped or
// store-wide, limited or not — returns the IDs a linear scan of the
// documents finds, in ID order, and the entries it returns are the
// store's own, not copies.
func TestSearchReturnsStoredEntries(t *testing.T) {
	s := NewStore()
	var all []*Document
	for i := 0; i < 60; i++ {
		comm := []string{"patterns", "mp3", "species"}[i%3]
		d := doc(fmt.Sprintf("d%02d", i), comm, "T", map[string][]string{
			"k": {fmt.Sprintf("v%d", i%4)}, "year": {fmt.Sprint(1990 + i%10)},
		})
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
		all = append(all, d)
	}
	for _, comm := range []string{"patterns", "mp3", "nobody", ""} {
		for _, f := range []string{"(k=v1)", "(year>=1995)", "(&(k=v2)(year<=1996))", "(k=*)", "(k=absent)"} {
			for _, limit := range []int{0, 3} {
				var want []string
				for _, d := range all {
					if (comm == "" || d.CommunityID == comm) && query.MustParse(f).Match(d.Attrs) && (limit == 0 || len(want) < limit) {
						want = append(want, string(d.ID))
					}
				}
				got := s.Search(comm, query.MustParse(f), limit)
				if fmt.Sprint(ids(got)) != fmt.Sprint(want) {
					t.Fatalf("%q %s limit %d: Search %v, scan %v", comm, f, limit, ids(got), want)
				}
				for _, e := range got {
					if s.docs[e.ID] != e {
						t.Fatalf("%s: search returned a copy", e.ID)
					}
				}
			}
		}
	}
}

// TestSearchStableUnderPut: an entry a reader got from a search never
// changes, however often the same ID is Put or deleted meanwhile —
// writers install new entries, they do not write to installed ones.
// Under -race a write to a held entry is a reported race as well as a
// failed comparison.
func TestSearchStableUnderPut(t *testing.T) {
	const ids, writers, rounds = 8, 4, 300
	s := NewStore()
	put := func(id, version int) {
		v := fmt.Sprintf("v%d", version)
		if err := s.Put(doc(fmt.Sprintf("d%d", id), "patterns", "title "+v, map[string][]string{
			"k": {"same"}, "version": {v, v + "-again"},
		})); err != nil {
			t.Error(err)
		}
	}
	for id := 0; id < ids; id++ {
		put(id, 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for version := 1; ; version++ {
				select {
				case <-stop:
					return
				default:
				}
				id := (w + version) % ids
				if version%7 == 0 {
					s.Delete(DocID(fmt.Sprintf("d%d", id)))
				}
				put(id, w*1_000_000+version)
			}
		}(w)
	}
	f := query.MustParse("(k=same)")
	for r := 0; r < rounds; r++ {
		held := s.Search("patterns", f, 0)
		copies := make([]Entry, len(held))
		for i, e := range held {
			copies[i] = *e
		}
		for i := 0; i < 3; i++ {
			s.Search("patterns", f, 0) // let writers run against the held set
		}
		for i, e := range held {
			c := copies[i]
			if e.ID != c.ID || e.Title != c.Title || e.XML != c.XML || !e.Attrs.Equal(c.Attrs) || e.Attrs.Get("version") != strings.TrimPrefix(e.Title, "title ") {
				t.Fatalf("round %d: held entry %s changed: %+v, was %+v", r, e.ID, e, c)
			}
		}
	}
	close(stop)
	wg.Wait()
}
