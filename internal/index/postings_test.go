package index

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/query"
)

// checkPostings holds the inverted index to its definition: each
// field's postings are sorted by (hash, ID) without repeats, every
// posting names a live entry of its own community, no field is empty,
// and the postings are exactly those of the live entries' keys.
func checkPostings(t *testing.T, s *Store) {
	t.Helper()
	type key struct {
		comm, attr string
		h          uint64
		id         DocID
	}
	want := make(map[key]bool)
	for _, e := range s.docs {
		for attr, vals := range e.Attrs.All() {
			for v := range vals {
				for k := range query.IndexKeys(v) {
					want[key{e.CommunityID, attr, maphash.String(keySeed, k), e.ID}] = true
				}
			}
		}
	}
	n := 0
	for comm, c := range s.communities {
		if !slices.IsSortedFunc(c.fields, func(a, b field) int { return strings.Compare(a.attr, b.attr) }) {
			t.Fatalf("community %q: fields out of order", comm)
		}
		for _, f := range c.fields {
			if len(f.posts) == 0 {
				t.Fatalf("community %q, field %q: no postings", comm, f.attr)
			}
			for i, p := range f.posts {
				if i > 0 && !before(f.posts[i-1], p) {
					t.Fatalf("community %q, field %q: postings %d and %d out of order", comm, f.attr, i-1, i)
				}
				if s.docs[p.e.ID] != p.e || p.e.CommunityID != comm {
					t.Fatalf("community %q, field %q: a posting names %s, which is not a live entry of the community", comm, f.attr, p.e.ID)
				}
				if !want[key{comm, f.attr, p.h, p.e.ID}] {
					t.Fatalf("community %q, field %q: %s is posted under a hash none of its keys has", comm, f.attr, p.e.ID)
				}
				n++
			}
		}
	}
	if n != len(want) || s.Postings() != n {
		t.Fatalf("%d postings filed, Postings() = %d, the live entries have %d", n, s.Postings(), len(want))
	}
}

// TestCollidingKeys files different keys under one hash, as a collision
// of the key hash would: two keys of one entry, and a third key of
// another entry. The entry's two keys share its one posting, a search
// still answers only the entries holding the key it asks for, removing
// the other entry's posting leaves the first's, a replacement of the
// first takes its posting and not the other's, and the replacement's
// two keys remove its posting once.
func TestCollidingKeys(t *testing.T) {
	s := NewStore()
	x := NewEntry(doc("x", "c", "x", map[string][]string{"t": {"red", "green"}}))
	y := NewEntry(doc("y", "c", "y", map[string][]string{"t": {"blue"}}))
	for _, e := range []*Entry{x, y} {
		s.putLocked(e) // members only: the postings are filed below
	}
	c := s.communities["c"]
	c.fields = []field{{attr: "t"}}
	red := maphash.String(keySeed, "red")
	file := func(del bool, es ...*Entry) {
		var edits []edit
		for _, e := range es {
			edits = append(edits, edit{0, del, posting{red, e}})
		}
		c.fields[0].posts = splice(c.fields[0].posts, edits)
		c.fields = slices.DeleteFunc(c.fields, func(f field) bool { return len(f.posts) == 0 })
	}
	search := func() string {
		return fmt.Sprint(ids(s.Search("c", query.MustParse("(t=red)"), 0)))
	}

	file(false, x, x, y) // x's "red" and "green", y's "blue"
	if got := s.Postings(); got != 2 {
		t.Errorf("x's two keys and y's one under one hash: %d postings, want 2", got)
	}
	if got := search(); got != "[x]" {
		t.Errorf("(t=red) = %s, want [x]", got)
	}
	file(true, y)
	if got := c.fields[0].posts; len(got) != 1 || got[0] != (posting{red, x}) {
		t.Errorf("after y's posting was removed: %v, want x's alone", got)
	}
	if got := search(); got != "[x]" {
		t.Errorf("(t=red) = %s after y's posting was removed, want [x]", got)
	}
	file(false, y)
	x2 := NewEntry(doc("x", "c", "x", map[string][]string{"t": {"red", "green"}}))
	s.putLocked(x2)
	c.fields[0].posts = splice(c.fields[0].posts, []edit{{0, false, posting{red, x2}}, {0, true, posting{red, x}}, {0, true, posting{red, x}}})
	if got := c.fields[0].posts; len(got) != 2 || got[0].e != x2 || got[1].e != y {
		t.Errorf("after x was replaced: %v, want x's replacement and y", got)
	}
	file(true, y)
	file(true, x2, x2)
	if len(c.fields) != 0 || s.Postings() != 0 {
		t.Errorf("after x's two keys were removed: %d fields, %d postings, want none", len(c.fields), s.Postings())
	}
}

// TestReplaceLeavesNoDeadPosting: replaces in place and across
// communities, singly and in batches that repeat an ID, and deletes
// leave every posting naming a live entry and the index equal to the
// one the live entries' keys define.
func TestReplaceLeavesNoDeadPosting(t *testing.T) {
	s := NewStore()
	put := func(docs ...*Document) {
		t.Helper()
		if err := s.PutBatch(docs); err != nil {
			t.Fatal(err)
		}
		checkPostings(t, s)
	}
	v := func(i int) map[string][]string {
		return map[string][]string{"t": {fmt.Sprintf("w%d shared", i%3)}, "k": {fmt.Sprint(i)}}
	}
	for i := 0; i < 8; i++ {
		put(doc(fmt.Sprintf("d%d", i), "a", "T", v(i)))
	}
	put(doc("d1", "a", "T", v(5)))
	put(doc("d2", "b", "T", v(2)))
	put(doc("d3", "a", "T", v(1)), doc("d3", "b", "T", v(2)), doc("d4", "a", "T", v(7)), doc("d3", "a", "T", v(4)))
	put(doc("d9", "b", "T", v(9)), doc("d9", "b", "T", v(0)))
	dup := map[string][]string{"t": {"dup dup", "dup"}} // key "dup" three times
	put(doc("d7", "a", "T", dup))
	put(doc("d7", "a", "T", dup))
	put(doc("d8", "b", "T", v(8)), doc("d8", "b", "T", v(8))) // a new ID twice, the same copy
	put(doc("d8", "b", "T", v(8)), doc("d8", "b", "T", v(4)), doc("d8", "b", "T", v(4)))
	if n := s.DeleteBatch([]DocID{"d0", "d2", "d9"}); n != 3 {
		t.Fatalf("DeleteBatch removed %d, want 3", n)
	}
	checkPostings(t, s)
	for i := 0; i < 9; i++ {
		s.Delete(DocID(fmt.Sprintf("d%d", i)))
	}
	checkPostings(t, s)
	if len(s.communities) != 0 {
		t.Errorf("%d communities left in an empty store", len(s.communities))
	}
}

// TestDeletedEntryCollectable: once an entry is deleted, nothing in the
// index keeps its attributes alive, even where another entry still
// holds one of its keys. (A key that was a substring of the first
// holder's attribute string once kept that whole string.)
func TestDeletedEntryCollectable(t *testing.T) {
	s := NewStore()
	if err := s.PutBatch([]*Document{
		doc("first", "c", "T", map[string][]string{"t": {"shared " + strings.Repeat("z", 4096)}}),
		doc("second", "c", "T", map[string][]string{"t": {"shared"}}),
	}); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		e, _ := s.Entry("first")
		v := e.Attrs.Get("t")
		runtime.AddCleanup(unsafe.StringData(v), func(ch chan struct{}) { close(ch) }, freed)
	}()
	s.Delete("first")
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			if got := ids(s.Search("c", query.MustParse("(t=shared)"), 0)); fmt.Sprint(got) != "[second]" {
				t.Errorf("(t=shared) = %v, want [second]", got)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the deleted entry's attribute string is still reachable")
}

// TestSpliceMatchesModel runs splice on random fields and edits drawn
// from a few hashes, IDs and versions of each ID (adds all name one
// version, as a write's adds name the live entry of their ID), so that
// edits share places, adds land between and over held postings and
// removals name held and unheld entries. It holds the result to a
// model: at each place an add files its entry, and removals alone take
// the posting out if one names it. The result must be in strict order
// and the vacated tail cleared.
func TestSpliceMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const hashes, ids, versions = 4, 6, 3
	var es [ids][versions]*Entry
	for i := range es {
		for v := range es[i] {
			es[i][v] = &Entry{ID: DocID(fmt.Sprint("d", i))}
		}
	}
	type place struct {
		h  uint64
		id DocID
	}
	for round := 0; round < 5000; round++ {
		held := make(map[place]*Entry)
		for range rng.Intn(hashes * ids) {
			e := es[rng.Intn(ids)][rng.Intn(versions)]
			held[place{uint64(rng.Intn(hashes)), e.ID}] = e
		}
		var posts []posting
		for p, e := range held {
			posts = append(posts, posting{p.h, e})
		}
		order := func(x, y posting) int { return cmp.Or(cmp.Compare(x.h, y.h), cmp.Compare(x.e.ID, y.e.ID)) }
		slices.SortFunc(posts, order)
		posts = slices.Grow(posts, rng.Intn(4))
		var edits []edit
		live := rng.Intn(versions) // the one version of an ID a write adds
		for range rng.Intn(12) {
			i, v, del := rng.Intn(ids), live, rng.Intn(2) == 0
			if del {
				v = rng.Intn(versions)
			}
			edits = append(edits, edit{0, del, posting{uint64(rng.Intn(hashes)), es[i][v]}})
		}
		want := maps.Clone(held)
		for _, d := range edits {
			if d.del && !slices.ContainsFunc(edits, func(a edit) bool { return !a.del && a.p.h == d.p.h && a.p.e.ID == d.p.e.ID }) &&
				want[place{d.p.h, d.p.e.ID}] == d.p.e {
				delete(want, place{d.p.h, d.p.e.ID})
			}
		}
		for _, a := range edits {
			if !a.del {
				want[place{a.p.h, a.p.e.ID}] = a.p.e
			}
		}
		in := fmt.Sprint(posts, edits)
		got := splice(posts, slices.Clone(edits))
		ok := len(got) == len(want)
		for i, p := range got {
			ok = ok && want[place{p.h, p.e.ID}] == p.e && (i == 0 || order(got[i-1], p) < 0)
		}
		for _, p := range got[len(got):cap(got)] {
			ok = ok && p == posting{}
		}
		if !ok {
			t.Fatalf("splice(%s) = %v, want %v", in, got, want)
		}
	}
}
