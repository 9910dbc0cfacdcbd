package query

import (
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// observer is a design-pattern record as the pattern community indexes
// it, plus a numeric field for the ordered operators.
func observer() Attrs {
	return Attrs{
		"name":           {"Observer"},
		"classification": {"behavioral"},
		"intent":         {"Define a one-to-many dependency between objects so that when one object changes state all its dependents are notified and updated automatically"},
		"keywords":       {"notification", "publish-subscribe", "dependency"},
		"applicability":  {"a change to one object requires changing others and you don't know how many"},
		"participants":   {"Subject", "Observer", "ConcreteSubject", "ConcreteObserver"},
		"year":           {"1994"},
	}
}

// TestMatchZeroAllocs: no operator allocates while it evaluates an
// ASCII record, whether it matches or walks every value and misses, on
// the map and on the flat form alike.
func TestMatchZeroAllocs(t *testing.T) {
	rec := observer()
	flat := FieldsOf(rec)
	for src, want := range map[string]bool{
		"(classification=behavioral)":     true,  // = exact
		"(classification=BEHAVIORAL)":     true,  // = exact, folded
		"(intent=dependents)":             true,  // = word
		"(applicability=don't)":           true,  // = word, inner punctuation kept
		"(keywords=wrapper)":              false, // = word, every field of every value
		"(intent=one-to-many dependency)": false, // = with a space: no word pass
		"(name=Obs*r)":                    true,  // = wildcard
		"(participants=*Subject*x)":       false,
		"(name=*)":                        true, // presence
		"(nosuch=*)":                      false,
		"(intent~=ONE-TO-MANY)":           true, // ~=
		"(intent~=many-to-one)":           false,
		"(year>=1994)":                    true, // ordered, numeric
		"(year<=1993.5)":                  false,
		"(year>1e3)":                      true,
		"(year<1994)":                     false,
		"(name>=M)":                       true, // ordered, lexicographic
		"(name<=M)":                       false,
		"(name>1994)":                     true, // number against a word: lexicographic
		"(name<Observer)":                 false,
		"(&(classification=behavioral)(keywords=undo))":    false,
		"(|(keywords=undo)(keywords~=SUBSCRIBE))":          true,
		"(!(participants=Visitor))":                        true,
		"(&(name=*)(!(year<1990))(|(name=Vis*)(name=O*)))": true,
	} {
		f := MustParse(src)
		if got, flatGot := f.Match(rec), f.Match(&flat); got != want || flatGot != want {
			t.Errorf("%s matched = %v on the map, %v on the flat form; want %v", src, got, flatGot, want)
		}
		if allocs := testing.AllocsPerRun(50, func() { f.Match(rec) }); allocs != 0 {
			t.Errorf("%s: %v allocations per Match of the map, want 0", src, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { f.Match(&flat) }); allocs != 0 {
			t.Errorf("%s: %v allocations per Match of the flat form, want 0", src, allocs)
		}
	}
}

// equivalenceCases are (filter value, attribute value) pairs where the
// in-place matcher could part from the old one: Unicode spaces between
// words, case mappings that change a string's length (İ, ſ, the Kelvin
// sign), invalid UTF-8, punctuation-only fields, numbers in every
// spelling strconv.ParseFloat accepts.
var equivalenceCases = [][2]string{
	{"blue", "Kind of Blue"},
	{"blue", "Kind of (Blue)."},
	{"blue", "kind of blue"},
	{"blue", "kind\u00a0of\u0085blue"},
	{"blue", "kind\u3000of\u2003blue"},
	{"blue", "kind\xa0of\x85blue"}, // the bare bytes are not spaces
	{"blue", "\tblue\v"},
	{"w", ",.;:!?\"'()w)('\"?!:;.,"}, // every trimmed character, both ends
	{"w", "w?"},
	{"w", "[w]"},
	{"w", "-w-"},
	{"w", "lwl nwn {w}"}, // bytes that alias trimmed ones modulo 64
	{"", "..."},
	{"", "a ... b"},
	{"k", "K"},
	{"K", "k"},
	{"ss", "ſſ"},
	{"i̇", "İ"},
	{"İstanbul", "i̇stanbul"},
	{"i*", "İstanbul"},
	{"*İ*", "ai̇b"},
	{"STRASSE", "straße"},
	{"\xff", "\xff"},
	{"\xff*", "\xfe\xff"},
	{"a*\xff", "A�"},
	{"*", "x"},
	{"**", ""},
	{"a**b", "AxB"},
	{"a*b*", "ab"},
	{"*a*b", "ba"},
	{"ab*ab", "ab"},
	{"O*s*r", "Observer"},
	{"a b", "A  B"},
	{"a\tb", "a\tb"},
	{"1994", " 1994 "},
	{"1e3", "1000"},
	{"0x10", "16"},
	{"inf", "+Infinity"},
	{"nan", "NaN"},
	{"-0", "0"},
	{"1_000", "1000"},
	{"1e999", "5"},
	{".5", "0.5"},
	{"10", "9"},
	{"10", "9a"},
	{"north", "nan"},
	{"infinite", "1"},
	{"", ""},
	{" ", " "},
	{"é", "É"},
	{"é", "É"},
	{"σ", "Σς"},
}

var allOps = []Op{OpEq, OpContains, OpGe, OpLe, OpGt, OpLt}

// checkEquivalence compares the live matcher with the oracle on one
// assertion per operator, built as a literal so the value reaches
// Match unparsed, both ways round, on the map and on the flat form.
// It also checks the index key rule on each value the equality
// assertion matches.
func checkEquivalence(t *testing.T, a, b string) {
	t.Helper()
	for _, pair := range [2][2]string{{a, b}, {b, a}} {
		attrs := Attrs{"k": {"", pair[1], pair[1] + " " + pair[0]}}
		for _, op := range allOps {
			f := &Assertion{Attr: "k", Op: op, Value: pair[0]}
			for name, set := range map[string]Attrs{"one": {"k": {pair[1]}}, "many": attrs} {
				checkForms(t, f, set, name)
			}
			for _, v := range attrs["k"] {
				checkIndexKey(t, f, v)
			}
		}
	}
}

// checkIndexKey: when f matches v and may be answered from an index,
// IndexKeys files v under f's IndexKey, so an index finds v.
func checkIndexKey(t *testing.T, f *Assertion, v string) {
	t.Helper()
	key, ok := f.IndexKey()
	if !ok || !f.Match(Attrs{"k": {v}}) {
		return
	}
	for k := range IndexKeys(v) {
		if k == key {
			return
		}
	}
	t.Errorf("%s matches %q, but IndexKeys(%q) = %q lacks its key %q", f, v, v, slices.Collect(IndexKeys(v)), key)
}

// checkForms checks that f matches set, as a map and in flat form, as
// the old matcher does.
func checkForms(t *testing.T, f Filter, set Attrs, name string) {
	t.Helper()
	want := oracleMatch(f, set)
	flat := FieldsOf(set)
	for form, s := range map[string]AttrSet{"map": set, "flat": &flat} {
		if got := f.Match(s); got != want {
			t.Errorf("%s on %s %v (%s): Match = %v, the old matcher says %v", f, name, set, form, got, want)
		}
	}
}

// TestMatchAgreesWithOracle pins the matching semantics: the live
// matcher answers every case like the pre-rewrite one, on either form.
func TestMatchAgreesWithOracle(t *testing.T) {
	for _, c := range equivalenceCases {
		checkEquivalence(t, c[0], c[1])
	}
}

// FuzzMatchEquivalence: for any filter source and any two attribute
// values, Match and the retained old matcher agree — on the parsed
// filter (every attribute it names holding both values) and on literal
// assertions of each operator over the raw strings, on the map and on
// the flat form.
func FuzzMatchEquivalence(f *testing.F) {
	for _, c := range equivalenceCases {
		f.Add("(k="+c[0]+")", c[1], c[0])
		f.Add("(|(a~="+c[0]+")(!(b>="+c[0]+")))", c[1], "")
	}
	f.Add("(&(classification=behavioral)(keywords=undo))", "behavioral", "snapshot undo state")
	f.Fuzz(func(t *testing.T, src, v1, v2 string) {
		checkEquivalence(t, src, v1)
		checkEquivalence(t, v2, v1)
		filter, err := Parse(src)
		if err != nil {
			return
		}
		attrs := Attrs{}
		for _, name := range referenced(filter, nil) {
			attrs[name] = []string{v1, v2}
		}
		checkForms(t, filter, attrs, "every attribute")
	})
}

// referenced appends the attribute names f asserts on.
func referenced(f Filter, into []string) []string {
	switch f := f.(type) {
	case *Assertion:
		return append(into, f.Attr)
	case *And:
		for _, s := range f.Subs {
			into = referenced(s, into)
		}
	case *Or:
		for _, s := range f.Subs {
			into = referenced(s, into)
		}
	case *Not:
		return referenced(f.Sub, into)
	}
	return into
}

var matchSink bool

// BenchmarkMatch times one Match of each operator over a design-pattern
// record: a hit on the first value, and a miss that walks them all.
func BenchmarkMatch(b *testing.B) {
	rec := observer()
	for _, src := range []string{
		"(classification=behavioral)", "(keywords=wrapper)", "(intent=dependents)", "(name=Obs*r)", "(name=*)",
		"(intent~=one-to-many)", "(year>=1990)", "(name>=M)", "(&(classification=behavioral)(keywords=undo))",
	} {
		f := MustParse(src)
		b.Run(src, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matchSink = f.Match(rec)
			}
		})
	}
}

// TestFoldKeyAgreesWithEqualFold: every rune shares its FoldKey with
// its whole unicode.SimpleFold orbit and with nothing outside it (the
// key is a member of the orbit), so FoldKey(a) == FoldKey(b) exactly
// when strings.EqualFold(a, b); an invalid byte keys as the
// utf8.RuneError EqualFold reads it as.
func TestFoldKeyAgreesWithEqualFold(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		key := FoldKey(string(r))
		if !strings.EqualFold(key, string(r)) {
			t.Fatalf("FoldKey(%q) = %q, outside its fold orbit", r, key)
		}
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if got := FoldKey(string(f)); got != key {
				t.Fatalf("FoldKey(%q) = %q, but FoldKey(%q) = %q", f, got, r, key)
			}
		}
	}
	for _, pair := range [][2]string{{"\xff", "�"}, {"\xffabc", "\xfeABC"}, {"Kelvin", "\u212aELVIN"}, {"ſun", "SUN"}, {"σοφος", "ΣΟΦΟΣ"}} {
		if !strings.EqualFold(pair[0], pair[1]) || FoldKey(pair[0]) != FoldKey(pair[1]) {
			t.Errorf("%q, %q: EqualFold %v, keys %q and %q", pair[0], pair[1], strings.EqualFold(pair[0], pair[1]), FoldKey(pair[0]), FoldKey(pair[1]))
		}
	}
	if s := "already folded"; FoldKey(s) != s {
		t.Errorf("FoldKey(%q) = %q", s, FoldKey(s))
	}
}

// TestIndexKeyHashes: IndexKeyHashes yields the KeyHash of each key
// IndexKeys files a value under, in order, over values that fold
// (capitals, non-ASCII, an invalid byte, a fold longer than its stack
// buffer) and values that are their own key; and it allocates nothing
// on a value that folds within that buffer.
func TestIndexKeyHashes(t *testing.T) {
	long := strings.Repeat("Straße İ ", keyStack/8)
	for _, v := range []string{
		"", "builder", "abstract factory", "Builder", "Straße", "İ", "Ǆ", "ǅungla ǆ Ǆ",
		"Abstract Factory, (Kit)", "\xffBad UTF-8", "!! ,", "σοφος ΣΟΦΟΣ", long,
	} {
		var want []uint64
		for k := range IndexKeys(v) {
			want = append(want, KeyHash(k))
		}
		if got := slices.Collect(IndexKeyHashes(v)); !slices.Equal(got, want) {
			t.Errorf("IndexKeyHashes(%q) = %x, want the hashes of %q: %x", v, got, slices.Collect(IndexKeys(v)), want)
		}
	}
	var sum uint64
	v := "Provide an Interface for creating Families of related objects: Straße, İ, Ǆ"
	if allocs := testing.AllocsPerRun(100, func() {
		for h := range IndexKeyHashes(v) {
			sum += h
		}
	}); allocs != 0 {
		t.Errorf("IndexKeyHashes(%q) allocates %v times, want 0", v, allocs)
	}
}
