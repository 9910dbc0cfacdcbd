package index

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/query"
)

func doc(id, community, title string, attrs map[string][]string) *Document {
	a := query.Attrs{}
	for k, vs := range attrs {
		for _, v := range vs {
			a.Add(k, v)
		}
	}
	return &Document{
		ID:          DocID(id),
		CommunityID: community,
		Title:       title,
		XML:         "<obj>" + title + "</obj>",
		Attrs:       a,
	}
}

func seeded(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	docs := []*Document{
		doc("d1", "patterns", "Observer", map[string][]string{
			"title": {"Observer"}, "keywords": {"behavioral", "GoF"}, "year": {"1994"},
		}),
		doc("d2", "patterns", "Visitor", map[string][]string{
			"title": {"Visitor"}, "keywords": {"behavioral"}, "year": {"1994"},
		}),
		doc("d3", "patterns", "Composite", map[string][]string{
			"title": {"Composite"}, "keywords": {"structural"}, "year": {"1994"},
		}),
		doc("d4", "mp3", "Kind of Blue", map[string][]string{
			"title": {"Kind of Blue"}, "artist": {"Miles Davis"}, "year": {"1959"},
		}),
	}
	for _, d := range docs {
		if err := s.Put(d); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := seeded(t)
	d, err := s.Get("d1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if d.Title != "Observer" {
		t.Errorf("title = %q", d.Title)
	}
	if !s.Has("d2") || s.Has("nope") {
		t.Error("Has wrong")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.CommunityLen("patterns") != 3 {
		t.Errorf("patterns = %d", s.CommunityLen("patterns"))
	}
	if !s.Delete("d3") {
		t.Error("Delete existing = false")
	}
	if s.Delete("d3") {
		t.Error("Delete twice = true")
	}
	if _, err := s.Get("d3"); err == nil {
		t.Error("Get after delete succeeded")
	}
	if s.Len() != 3 {
		t.Errorf("Len after delete = %d", s.Len())
	}
}

func TestPutValidation(t *testing.T) {
	s := NewStore()
	if err := s.Put(nil); err == nil {
		t.Error("nil doc accepted")
	}
	if err := s.Put(&Document{}); err == nil {
		t.Error("doc without ID accepted")
	}
}

func TestSearchExact(t *testing.T) {
	s := seeded(t)
	got := s.Search("patterns", query.MustParse("(title=Observer)"), 0)
	if len(got) != 1 || got[0].ID != "d1" {
		t.Fatalf("got = %v", ids(got))
	}
}

func TestSearchCommunityScoping(t *testing.T) {
	s := seeded(t)
	// year=1994 in patterns: 3 docs; in mp3: none.
	if got := s.Search("patterns", query.MustParse("(year=1994)"), 0); len(got) != 3 {
		t.Errorf("patterns 1994 = %v", ids(got))
	}
	if got := s.Search("mp3", query.MustParse("(year=1994)"), 0); len(got) != 0 {
		t.Errorf("mp3 1994 = %v", ids(got))
	}
	// Empty community searches everything.
	if got := s.Search("", query.MustParse("(year=*)"), 0); len(got) != 4 {
		t.Errorf("all year=* = %v", ids(got))
	}
}

func TestSearchOperators(t *testing.T) {
	s := seeded(t)
	cases := []struct {
		filter string
		want   []string
	}{
		{"(keywords=behavioral)", []string{"d1", "d2"}},
		{"(title~=site)", []string{"d3"}}, // compoSITE
		{"(title=Obs*)", []string{"d1"}},
		{"(&(keywords=behavioral)(title=Visitor))", []string{"d2"}},
		{"(|(title=Observer)(title=Composite))", []string{"d1", "d3"}},
		{"(!(keywords=behavioral))", []string{"d3"}},
		{"(year<1994)", nil},
		{"(*)", []string{"d1", "d2", "d3"}},
	}
	for _, c := range cases {
		got := ids(s.Search("patterns", query.MustParse(c.filter), 0))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s = %v, want %v", c.filter, got, c.want)
		}
	}
}

func TestSearchLimit(t *testing.T) {
	s := seeded(t)
	got := s.Search("patterns", query.MustParse("(year=1994)"), 2)
	if len(got) != 2 {
		t.Errorf("limit 2 returned %d", len(got))
	}
}

func TestSearchNilFilter(t *testing.T) {
	s := seeded(t)
	if got := s.Search("patterns", nil, 0); len(got) != 3 {
		t.Errorf("nil filter = %d docs", len(got))
	}
}

func TestWordTokenization(t *testing.T) {
	s := seeded(t)
	// "Kind of Blue" indexes word tokens: exact word match hits.
	got := s.Search("mp3", query.MustParse("(title=blue)"), 0)
	if len(got) != 1 {
		t.Errorf("word match = %v", ids(got))
	}
	// Multi-word exact value matches too.
	got = s.Search("mp3", query.MustParse("(title=Kind of Blue)"), 0)
	if len(got) != 1 {
		t.Errorf("full value match = %v", ids(got))
	}
}

func TestReplaceReindexes(t *testing.T) {
	s := seeded(t)
	before := s.Postings()
	d := doc("d1", "patterns", "Renamed", map[string][]string{"title": {"Renamed"}})
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	if got := s.Search("patterns", query.MustParse("(title=Observer)"), 0); len(got) != 0 {
		t.Errorf("old title still matches: %v", ids(got))
	}
	if got := s.Search("patterns", query.MustParse("(title=Renamed)"), 0); len(got) != 1 {
		t.Errorf("new title = %v", ids(got))
	}
	if s.Postings() >= before {
		t.Errorf("postings %d not reduced from %d after replacing richer doc", s.Postings(), before)
	}
}

func TestDeleteCleansIndex(t *testing.T) {
	s := NewStore()
	if err := s.Put(doc("x", "c", "T", map[string][]string{"title": {"unique-token"}})); err != nil {
		t.Fatal(err)
	}
	if s.Postings() == 0 {
		t.Fatal("no postings after put")
	}
	s.Delete("x")
	if s.Postings() != 0 {
		t.Errorf("postings = %d after delete", s.Postings())
	}
	if got := s.Search("c", query.MustParse("(title=unique-token)"), 0); len(got) != 0 {
		t.Errorf("deleted doc found: %v", ids(got))
	}
}

func TestCommunities(t *testing.T) {
	s := seeded(t)
	got := s.Communities()
	if fmt.Sprint(got) != "[mp3 patterns]" {
		t.Errorf("communities = %v", got)
	}
}

func TestDocumentIsolation(t *testing.T) {
	s := seeded(t)
	d, _ := s.Get("d1")
	d.Attrs.Add("title", "mutated")
	d.Attachments = append(d.Attachments, "x")
	d2, _ := s.Get("d1")
	if len(d2.Attrs["title"]) != 1 {
		t.Error("mutation leaked into store")
	}
	// Search returns the store's own entries, whose attributes no
	// caller can change, and a later Get still copies.
	f := query.MustParse("(title=Observer)")
	res := s.Search("patterns", f, 0)
	if e, _ := s.Entry("d1"); len(res) != 1 || res[0] != e {
		t.Error("Search did not return the stored entry")
	}
	d3, _ := s.Get("d1")
	d3.Attrs["title"][0] = "mutated"
	if v := res[0].Attrs.Get("title"); v != "Observer" {
		t.Errorf("a copy's mutation reached the stored entry: title %q", v)
	}
	// Mutating the doc passed to Put must not affect the store either.
	orig := doc("d9", "c", "T", map[string][]string{"k": {"v"}})
	if err := s.Put(orig); err != nil {
		t.Fatal(err)
	}
	orig.Attrs.Add("k", "v2")
	stored, _ := s.Get("d9")
	if len(stored.Attrs["k"]) != 1 {
		t.Error("Put aliased caller's attrs")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				id := fmt.Sprintf("d%d-%d", n, j)
				_ = s.Put(doc(id, "c", "T", map[string][]string{"k": {fmt.Sprintf("v%d", j)}}))
				s.Search("c", query.MustParse("(k=v1)"), 0)
				s.Get(DocID(id))
				if j%10 == 0 {
					s.Delete(DocID(id))
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Error("store empty after concurrent writes")
	}
}

// Property: indexed-candidate acceleration returns exactly the same
// results as a brute-force scan for equality filters.
// TestSharedPostingList covers keys that share documents: another
// document joining one of a document's keys must not show up under its
// others, and a replace must take every key of the old version away.
func TestSharedPostingList(t *testing.T) {
	s := NewStore()
	search := func(v string) []string {
		return ids(s.Search("c", &query.Assertion{Attr: "t", Op: query.OpEq, Value: v}, 0))
	}
	put := func(id, v string) {
		t.Helper()
		if err := s.Put(doc(id, "c", id, map[string][]string{"t": {v}})); err != nil {
			t.Fatal(err)
		}
	}
	put("x", "one two") // keys "one two", "one" and "two"
	put("y", "two")
	if got := fmt.Sprint(search("one"), search("two"), search("one two")); got != "[x] [x y] [x]" {
		t.Errorf("after y joined \"two\": one, two, one two = %s", got)
	}
	s.Delete("y")
	put("x", "three")
	if got := fmt.Sprint(search("one"), search("two"), search("one two"), search("three")); got != "[] [] [] [x]" {
		t.Errorf("after x was replaced: one, two, one two, three = %s", got)
	}
	if n := s.Postings(); n != 1 {
		t.Errorf("postings = %d after the replace, want 1", n)
	}
}

func TestPropertyIndexAccelerationSound(t *testing.T) {
	vals := []string{"alpha", "beta", "gamma", "alpha beta", "delta"}
	f := func(seed uint8, q uint8) bool {
		s := NewStore()
		var all []*Document
		for i := 0; i < 12; i++ {
			d := doc(fmt.Sprintf("d%d", i), "c", "t", map[string][]string{
				"k": {vals[(int(seed)+i)%len(vals)]},
			})
			all = append(all, d)
			if err := s.Put(d); err != nil {
				return false
			}
		}
		target := vals[int(q)%len(vals)]
		filter := &query.Assertion{Attr: "k", Op: query.OpEq, Value: target}
		got := map[DocID]bool{}
		for _, d := range s.Search("c", filter, 0) {
			got[d.ID] = true
		}
		for _, d := range all {
			want := filter.Match(d.Attrs)
			if got[d.ID] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: postings never go negative and return to zero when all
// documents are deleted.
func TestPropertyPostingsBalanced(t *testing.T) {
	f := func(n uint8) bool {
		s := NewStore()
		count := int(n%20) + 1
		for i := 0; i < count; i++ {
			_ = s.Put(doc(fmt.Sprintf("d%d", i), "c", "t", map[string][]string{
				"a": {fmt.Sprintf("value %d", i%5)},
				"b": {"shared token"},
			}))
		}
		if s.Postings() <= 0 {
			return false
		}
		for i := 0; i < count; i++ {
			s.Delete(DocID(fmt.Sprintf("d%d", i)))
		}
		return s.Postings() == 0 && s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEmptyStoreHeap pins what a store costs before it holds anything:
// every simulated peer builds one, and most peers share a handful of
// objects. Measured as the live heap after GC across 500 stores, each
// with its own private metrics registry.
func TestEmptyStoreHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	const stores, limit = 500, 16 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := make([]*Store, stores)
	for i := range held {
		held[i] = NewStore()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / stores
	t.Logf("an empty store holds %d bytes of heap", per)
	if per > limit {
		t.Errorf("an empty store holds %d bytes of heap, want at most %d", per, limit)
	}
}

func ids(docs []*Entry) []string {
	if len(docs) == 0 {
		return nil
	}
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = string(d.ID)
	}
	return out
}

// dump renders every stored document, sorted by ID and each read back
// through Get, as indented JSON: two stores with equal dumps hold the
// same documents.
func dump(t *testing.T, s *Store) []byte {
	t.Helper()
	var docs []*Document
	for _, d := range s.Search("", query.MatchAll{}, 0) {
		got, err := s.Get(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, got)
	}
	out, err := json.MarshalIndent(docs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSearchAllocs pins a community-scoped search to one allocation,
// the result slice, whether it walks the members (a presence filter),
// one run of postings (an exact match) or the intersection of two (an And
// of exact matches).
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := NewStore()
	for i := 0; i < 200; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%03d", i), "c", "T", map[string][]string{
			"k": {fmt.Sprintf("v%d", i%4)}, "tags": {"alpha", fmt.Sprintf("t%d", i%5)},
		})); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{"(k=*)", "(tags=alpha)", "(&(k=v1)(tags=t2))"} {
		f := query.MustParse(src)
		if got := len(s.Search("c", f, 25)); got == 0 {
			t.Fatalf("%s: no results", src)
		}
		if n := testing.AllocsPerRun(100, func() { s.Search("c", f, 25) }); n > 1 {
			t.Errorf("%s: %.0f allocations per search, want at most 1", src, n)
		}
	}
}
