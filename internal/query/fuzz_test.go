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
// parses. testdata/fuzz holds 40 000 negations of (a=b) and a filter at
// the bound.
func FuzzFilterParse(f *testing.F) {
	for _, src := range []string{
		"(title=Observer)", "(&(a=1)(b=2))", "(|(a=1)(!(b~=x))(c>=3))", "(keywords=*)", "(*)",
		"a=b", "(&(*)(title=Obs*r))", "(v=(x)y)", nestedNot(maxNesting), nestedNot(maxNesting + 1),
		"(\r!=b)", "(\u00a0*=b)", // once read as attribute names "!" and "*", which String cannot spell
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		filter, err := Parse(src)
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
