// Fuzzing filters against corpus-generated documents: where
// fuzz_test.go (package query) round-trips the parser on adversarial
// strings, this file (package query_test, so it may import the store
// that itself imports query) generates random but well-formed filters
// and checks the inverted-index-accelerated store returns
// exactly the documents a naive linear scan matches — the oracle that
// keeps index acceleration honest (its candidate pruning must stay a
// superset, its post-filter exact).
package query_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/query"
)

// corpusAttrs extracts a query.Attrs view of a generated pattern
// object directly from its XML children (independent of the stylegen
// indexing pipeline, so this test exercises query+index only).
func corpusAttrs(o corpus.Object) query.Attrs {
	attrs := query.Attrs{}
	for _, field := range []string{"name", "classification", "intent", "keywords", "applicability", "participants"} {
		for _, n := range o.Doc.ChildrenNamed(field) {
			if v := strings.TrimSpace(n.Text()); v != "" {
				attrs.Add(field, v)
			}
		}
	}
	return attrs
}

// filterGen builds random well-formed filters over the corpus
// vocabulary: assertions with every operator, wildcards, and nested
// and/or/not combinations.
type filterGen struct {
	r      *rand.Rand
	fields []string
	values []string
}

func newFilterGen(r *rand.Rand, docs []query.Attrs) *filterGen {
	g := &filterGen{
		r:      r,
		fields: []string{"name", "classification", "intent", "keywords", "participants", "nosuchfield"},
	}
	seen := map[string]bool{}
	for _, attrs := range docs {
		for _, vals := range attrs {
			for _, v := range vals {
				if !seen[v] {
					seen[v] = true
					g.values = append(g.values, v)
				}
			}
		}
	}
	// Values that match nothing, and wildcard fodder.
	g.values = append(g.values, "zzz-absent", "*", "Ob*er", "*pattern*")
	return g
}

func (g *filterGen) value() string {
	v := g.values[g.r.Intn(len(g.values))]
	// Occasionally take a fragment to exercise substring/wildcard ops.
	if len(v) > 4 && g.r.Intn(3) == 0 {
		v = v[1 : len(v)-1]
	}
	// Filter syntax reserves these; the parser would reject them inside
	// a value.
	v = strings.Map(func(r rune) rune {
		switch r {
		case '(', ')', '&', '|', '!', '=', '<', '>', '~':
			return ' '
		}
		return r
	}, v)
	if strings.TrimSpace(v) == "" {
		v = "x"
	}
	return v
}

func (g *filterGen) filter(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		field := g.fields[g.r.Intn(len(g.fields))]
		op := []string{"=", "~=", ">=", "<=", ">", "<"}[g.r.Intn(6)]
		return fmt.Sprintf("(%s%s%s)", field, op, g.value())
	}
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("(&%s%s)", g.filter(depth-1), g.filter(depth-1))
	case 1:
		return fmt.Sprintf("(|%s%s)", g.filter(depth-1), g.filter(depth-1))
	default:
		return fmt.Sprintf("(!%s)", g.filter(depth-1))
	}
}

// TestPropertyStoreMatchesLinearScan: for random filters over a
// corpus-backed store, Store.Search returns exactly the IDs a linear
// Filter.Match scan selects.
func TestPropertyStoreMatchesLinearScan(t *testing.T) {
	objs := corpus.DesignPatterns(60, 19).Objects
	attrs := make([]query.Attrs, len(objs))
	for i, o := range objs {
		attrs[i] = corpusAttrs(o)
	}
	st := index.NewStore()
	for i := range objs {
		if err := st.Put(&index.Document{
			ID:          index.DocID(fmt.Sprintf("p%03d", i)),
			CommunityID: "patterns",
			Attrs:       attrs[i],
		}); err != nil {
			t.Fatal(err)
		}
	}
	f := func(seed int64) bool {
		g := newFilterGen(rand.New(rand.NewSource(seed)), attrs)
		src := g.filter(3)
		filter, err := query.Parse(src)
		if err != nil {
			t.Logf("generator emitted unparseable filter %q: %v", src, err)
			return false
		}
		want := map[index.DocID]bool{}
		for i := range attrs {
			if filter.Match(attrs[i]) {
				want[index.DocID(fmt.Sprintf("p%03d", i))] = true
			}
		}
		got := st.Search("patterns", filter, 0)
		if len(got) != len(want) {
			t.Logf("filter %q: store=%d scan=%d", src, len(got), len(want))
			return false
		}
		for _, d := range got {
			if !want[d.ID] {
				t.Logf("filter %q: store returned non-matching %s", src, d.ID)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStoreLimitIsPrefix: a limited search returns a prefix of
// the unlimited (ID-sorted) result.
func TestPropertyStoreLimitIsPrefix(t *testing.T) {
	objs := corpus.DesignPatterns(40, 23).Objects
	st := index.NewStore()
	for i, o := range objs {
		if err := st.Put(&index.Document{
			ID:          index.DocID(fmt.Sprintf("p%03d", i)),
			CommunityID: "patterns",
			Attrs:       corpusAttrs(o),
		}); err != nil {
			t.Fatal(err)
		}
	}
	f := func(seed int64, limit uint8) bool {
		g := newFilterGen(rand.New(rand.NewSource(seed)), nil)
		g.values = []string{"*", "behavioral", "Observer", "a"}
		filter, err := query.Parse(g.filter(2))
		if err != nil {
			return false
		}
		full := st.Search("patterns", filter, 0)
		lim := int(limit%12) + 1
		part := st.Search("patterns", filter, lim)
		if len(part) > lim {
			return false
		}
		if len(full) >= lim && len(part) != lim {
			return false
		}
		for i := range part {
			if part[i].ID != full[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// wordEdgeValues are attribute values where the inverted index and
// Assertion.Match could part: punctuation inside a word, non-ASCII
// letters, runes whose case folds leave ASCII (ſ, the Kelvin sign),
// final sigma, invalid UTF-8, and pairs where one value is a word of
// another — once an index key holds the whole of one value, a lookup
// must still find the other.
var wordEdgeValues = []string{
	"C++", "C++ patterns",
	"x-ray", "x-ray vision",
	"café", "café au lait", "CAFÉ",
	"least-concern", "Least-Concern species",
	"publish-subscribe", "publish-subscribe, observer",
	"50-00-0", "CAS 50-00-0.",
	"don't", "don't panic", "(parenthesized) word", "e.g., this",
	"ſun", "SUN", "sun dial",
	"\u212aelvin", "kelvin", "KELVIN scale",
	"ΣΟΦΟΣ", "σοφος", "σοφος λογος",
	"\xffabc", "\xfeabc def", "�abc",
	"...", "hello ...", "  padded  ", "",
}

// TestStoreMatchesLinearScanOnWordEdges: for every equality lookup a
// value or one of its words can make — as is, upper- and lower-cased —
// Store.Search returns exactly the documents a linear Filter.Match scan
// selects.
func TestStoreMatchesLinearScanOnWordEdges(t *testing.T) {
	st := index.NewStore()
	attrs := make([]query.Attrs, len(wordEdgeValues))
	for i, v := range wordEdgeValues {
		attrs[i] = query.Attrs{"v": {v}}
		if err := st.Put(&index.Document{ID: index.DocID(fmt.Sprintf("w%02d", i)), CommunityID: "c", Attrs: attrs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	lookups := map[string]bool{}
	for _, v := range wordEdgeValues {
		for _, q := range append([]string{v}, slices.Collect(query.Words(v))...) {
			lookups[q], lookups[strings.ToUpper(q)], lookups[strings.ToLower(q)] = true, true, true
		}
	}
	for q := range lookups {
		f := &query.Assertion{Attr: "v", Op: query.OpEq, Value: q}
		var want []index.DocID
		for i := range attrs {
			if f.Match(attrs[i]) {
				want = append(want, index.DocID(fmt.Sprintf("w%02d", i)))
			}
		}
		var got []index.DocID
		for _, d := range st.Search("c", f, 0) {
			got = append(got, d.ID)
		}
		if !slices.Equal(got, want) {
			t.Errorf("(v=%q): store %v, linear scan %v", q, got, want)
		}
	}
}
