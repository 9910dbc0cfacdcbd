package query

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func attrs() Attrs {
	return Attrs{
		"title":    {"Observer"},
		"keywords": {"behavioral", "notification", "GoF"},
		"year":     {"1994"},
		"intent":   {"Define a one-to-many dependency between objects"},
	}
}

func mustMatch(t *testing.T, src string, want bool) {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if got := f.Match(attrs()); got != want {
		t.Errorf("%q matched = %v, want %v", src, got, want)
	}
}

func TestAssertions(t *testing.T) {
	mustMatch(t, "(title=Observer)", true)
	mustMatch(t, "(title=observer)", true) // equality is case-insensitive
	mustMatch(t, "(title=Visitor)", false)
	mustMatch(t, "(title=Obs*)", true)
	mustMatch(t, "(title=*server)", true)
	mustMatch(t, "(title=O*s*r)", true)
	mustMatch(t, "(title=O*x*)", false)
	mustMatch(t, "(title=*)", true)
	mustMatch(t, "(missing=*)", false)
	mustMatch(t, "(intent~=one-to-many)", true)
	mustMatch(t, "(intent~=ONE-TO-MANY)", true)
	mustMatch(t, "(intent~=many-to-one)", false)
	mustMatch(t, "(year>=1990)", true)
	mustMatch(t, "(year>1994)", false)
	mustMatch(t, "(year<=1994)", true)
	mustMatch(t, "(year<1800)", false)
}

func TestMultiValuedAttrs(t *testing.T) {
	// Any keyword value can satisfy the assertion.
	mustMatch(t, "(keywords=GoF)", true)
	mustMatch(t, "(keywords=notification)", true)
	mustMatch(t, "(keywords=structural)", false)
}

func TestComposition(t *testing.T) {
	mustMatch(t, "(&(title=Observer)(year>=1990))", true)
	mustMatch(t, "(&(title=Observer)(year>2000))", false)
	mustMatch(t, "(|(title=Visitor)(title=Observer))", true)
	mustMatch(t, "(|(title=Visitor)(title=Strategy))", false)
	mustMatch(t, "(!(title=Visitor))", true)
	mustMatch(t, "(!(title=Observer))", false)
	mustMatch(t, "(&(keywords=GoF)(!(year<1990))(|(title=Obs*)(title=Vis*)))", true)
}

func TestBareShorthand(t *testing.T) {
	mustMatch(t, "title=Observer", true)
	mustMatch(t, "year>=1990", true)
}

func TestMatchAll(t *testing.T) {
	for _, src := range []string{"(*)", "*"} {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if !f.Match(Attrs{}) {
			t.Errorf("%q should match empty attrs", src)
		}
	}
	// As sub-filter.
	mustMatch(t, "(&(*)(title=Observer))", true)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"(",
		"()",
		"(&)",
		"(title)",
		"(=x)",
		"((a=b)",
		"(a=b))",
		"(!(a=b)extra)",
		"(a~b)",
		"(a> =b)",
		"(\r!=b)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

// nestedNot is (!(!…(a=b)…)): levels filters, each inside the next.
func nestedNot(levels int) string {
	return strings.Repeat("(!", levels-1) + "(a=b)" + strings.Repeat(")", levels-1)
}

// TestParseNestingBound: a filter nested deeper than 32 levels is a
// *SyntaxError, so a peer's filter cannot make Parse, Match or String
// recurse without bound; one 32 levels deep round-trips.
func TestParseNestingBound(t *testing.T) {
	for _, src := range []string{
		nestedNot(40_001), // 40 000 negations: 120 005 bytes
		nestedNot(33),
		strings.Repeat("(&", 32) + "(a=b)" + strings.Repeat(")", 32),
		strings.Repeat("(|(x=y)", 32) + "(a=b)" + strings.Repeat(")", 32),
	} {
		var syn *SyntaxError
		if _, err := Parse(src); !errors.As(err, &syn) {
			t.Errorf("%d-byte filter: error %v, want a *SyntaxError", len(src), err)
		}
	}
	src := nestedNot(32)
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("32 levels: %v", err)
	}
	if again, err := Parse(f.String()); err != nil || f.String() != src || again.String() != src {
		t.Errorf("32 levels: %q -> %q (%v)", src, f.String(), err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"(title=Observer)",
		"(&(a=1)(b=2))",
		"(|(a=1)(!(b~=x))(c>=3))",
		"(keywords=*)",
		"(*)",
	}
	for _, src := range srcs {
		f := MustParse(src)
		again, err := Parse(f.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", f.String(), err)
		}
		if again.String() != f.String() {
			t.Errorf("round trip %q -> %q -> %q", src, f.String(), again.String())
		}
	}
}

func TestLexicographicComparison(t *testing.T) {
	a := Attrs{"name": {"beta"}}
	f := MustParse("(name>=alpha)")
	if !f.Match(a) {
		t.Error("beta >= alpha failed")
	}
	f = MustParse("(name>beta)")
	if f.Match(a) {
		t.Error("beta > beta matched")
	}
}

func TestAttrsHelpers(t *testing.T) {
	a := Attrs{}
	a.Add("k", "v1")
	a.Add("k", "v2")
	if a.Get("k") != "v1" {
		t.Errorf("Get = %q", a.Get("k"))
	}
	if a.Get("none") != "" {
		t.Error("Get missing != \"\"")
	}
}

// Property: De Morgan — !(a&b) ≡ (!a)|(!b) over random attr sets.
func TestPropertyDeMorgan(t *testing.T) {
	lhs := MustParse("(!(&(x=1)(y=1)))")
	rhs := MustParse("(|(!(x=1))(!(y=1)))")
	f := func(xv, yv uint8) bool {
		a := Attrs{
			"x": {itoa(int(xv % 3))},
			"y": {itoa(int(yv % 3))},
		}
		return lhs.Match(a) == rhs.Match(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: parse(f.String()) matches identically to f on random data.
func TestPropertyStringParseEquivalence(t *testing.T) {
	filters := []Filter{
		MustParse("(&(a=1)(b~=x))"),
		MustParse("(|(a>=2)(!(b=yes)))"),
		MustParse("(a=w*ld)"),
	}
	vals := []string{"1", "2", "x", "yes", "world", "wld", ""}
	f := func(fi, av, bv uint8) bool {
		orig := filters[int(fi)%len(filters)]
		reparsed := MustParse(orig.String())
		a := Attrs{"a": {vals[int(av)%len(vals)]}, "b": {vals[int(bv)%len(vals)]}}
		return orig.Match(a) == reparsed.Match(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: wildcard '*' alone matches any non-empty value set.
func TestPropertyPresence(t *testing.T) {
	f := MustParse("(k=*)")
	prop := func(v string) bool {
		return f.Match(Attrs{"k": {v}})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}
