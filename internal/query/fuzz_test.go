package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestPropertyParserNeverPanics feeds the parser adversarial strings
// assembled from the filter grammar's alphabet: it must either parse
// or return an error, never panic, and parsed filters must evaluate
// without panicking. (Evaluation-correctness fuzzing — random filters
// against corpus-generated documents, checked against a naive linear
// scan — lives in fuzz_corpus_test.go, in the external test package so
// it can import the store.)
func TestPropertyParserNeverPanics(t *testing.T) {
	alphabet := []string{
		"(", ")", "&", "|", "!", "=", "~=", ">=", "<=", ">", "<", "*",
		"a", "title", "keywords", "1994", " ", "value", "(&", "))", "(a=b)",
	}
	attrs := Attrs{"a": {"b"}, "title": {"value"}, "keywords": {"1994"}}
	f := func(seed int64, length uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		n := int(length%24) + 1
		for i := 0; i < n; i++ {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		filter, err := Parse(b.String())
		if err != nil {
			return true
		}
		filter.Match(attrs) // must not panic
		reparsed, err := Parse(filter.String())
		if err != nil {
			t.Logf("canonical form unparseable: %q -> %q: %v", b.String(), filter.String(), err)
			return false
		}
		return reparsed.Match(attrs) == filter.Match(attrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWildcardConsistency: wildcardMatch on a pattern without
// '*' equals case-insensitive equality.
func TestPropertyWildcardConsistency(t *testing.T) {
	words := []string{"Observer", "observer", "OBSERVER", "Visitor", "obs", ""}
	f := func(pi, vi uint8) bool {
		p := words[int(pi)%len(words)]
		v := words[int(vi)%len(words)]
		if strings.ContainsRune(p, '*') {
			return true
		}
		return wildcardMatch(p, v) == strings.EqualFold(p, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyComplementConsistency: f and (!f) never agree.
func TestPropertyComplementConsistency(t *testing.T) {
	filters := []string{
		"(a=1)", "(a~=x)", "(a>=2)", "(&(a=1)(b=2))", "(|(a=1)(b=2))",
	}
	vals := []string{"1", "2", "x", "xy", ""}
	f := func(fi, av, bv uint8) bool {
		base := MustParse(filters[int(fi)%len(filters)])
		neg := &Not{Sub: base}
		attrs := Attrs{"a": {vals[int(av)%len(vals)]}, "b": {vals[int(bv)%len(vals)]}}
		return base.Match(attrs) != neg.Match(attrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzFilterParse: whatever parses, String renders in a form that parses
// back and renders the same, and nothing nested deeper than maxNesting
// parses. A reused Parser agrees with Parse: the input is parsed again
// by a parser that has just parsed a deeper, wider filter, and then a
// third filter by the same parser, and each comes out with the String,
// the Match answers and the error of a fresh Parse; neither the filter
// nor the error depends on the caller's bytes once Parse returns.
// testdata/fuzz holds 40 000 negations of (a=b) and a filter at the
// bound. The seeds include the flood and DHT workloads' filters.
func FuzzFilterParse(f *testing.F) {
	for _, src := range []string{
		"(title=Observer)", "(&(a=1)(b=2))", "(|(a=1)(!(b~=x))(c>=3))", "(keywords=*)", "(*)",
		"a=b", "(&(*)(title=Obs*r))", "(v=(x)y)", nestedNot(maxNesting), nestedNot(maxNesting + 1),
		"(\r!=b)", "(\u00a0*=b)", // once read as attribute names "!" and "*", which String cannot spell
	} {
		f.Add(src)
	}
	for _, src := range workloadFilters {
		f.Add(src)
	}
	// deeper is wider and deeper than any seed but the nesting bound's.
	deeper := "(&" + nestedNot(maxNesting-2) + "(|(a=1)(b~=2)(!(c>=3)))(d=*)(&(e<4)(f=x*y)))"
	f.Fuzz(func(t *testing.T, src string) {
		filter, err := Parse(src)
		var p Parser
		if _, derr := p.Parse([]byte(deeper)); derr != nil {
			t.Fatal(derr)
		}
		buf := []byte(src)
		reused, rerr := p.Parse(buf)
		for i := range buf {
			buf[i] = '('
		}
		sameParse(t, src, filter, err, reused, rerr)
		third := workloadFilters[len(src)%len(workloadFilters)]
		want, werr := Parse(third)
		got, gerr := p.Parse([]byte(third))
		sameParse(t, third, want, werr, got, gerr)
		if err != nil {
			return
		}
		if d := nesting(filter); d > maxNesting {
			t.Fatalf("%q parsed %d levels deep", src, d)
		}
		canon := filter.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("%q parses, its String %q does not: %v", src, canon, err)
		}
		if s := again.String(); s != canon {
			t.Fatalf("%q -> %q -> %q", src, canon, s)
		}
	})
}

// workloadFilters are the filters the flood and DHT workloads search with.
var workloadFilters = []string{
	"(classification=behavioral)", "(classification=creational)", "(classification=structural)",
	"(keywords=wrapper)", "(&(classification=behavioral)(keywords=undo))", "(name=*)",
	"(!(classification=behavioral))", "(|(classification=creational)(classification=behavioral))",
}

// matchProbes are attribute sets a reused parser's filter must answer as
// a fresh one's does.
var matchProbes = []Attrs{
	{},
	{"a": {"1"}, "b": {"2"}, "title": {"Observer"}},
	{"classification": {"behavioral"}, "keywords": {"undo", "wrapper"}, "name": {"Command"}},
	{"classification": {"creational"}, "name": {"Builder"}, "c": {"3"}},
}

// sameParse fails unless a reused parser's result (got, gerr) is what
// Parse made of src (want, werr): the same error, or the same String and
// the same Match answers.
func sameParse(t *testing.T, src string, want Filter, werr error, got Filter, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: Parse error %v, reused Parser error %v", src, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("%q: Parse error %q, reused Parser error %q", src, werr, gerr)
		}
		return
	}
	if w, g := want.String(), got.String(); w != g {
		t.Fatalf("%q: Parse renders %q, a reused Parser %q", src, w, g)
	}
	for _, a := range matchProbes {
		if w, g := want.Match(a), got.Match(a); w != g {
			t.Fatalf("%q over %v: Parse matches %v, a reused Parser %v", src, a, w, g)
		}
	}
}

// nesting is how many levels deep f nests: (a=b) is one.
func nesting(f Filter) int {
	var subs []Filter
	switch f := f.(type) {
	case *Not:
		subs = []Filter{f.Sub}
	case *And:
		subs = f.Subs
	case *Or:
		subs = f.Subs
	}
	d := 0
	for _, s := range subs {
		d = max(d, nesting(s))
	}
	return 1 + d
}
