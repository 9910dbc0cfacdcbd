package xpath

import (
	"strings"
	"testing"
)

// FuzzXPathCompile: every select, test and match attribute of a
// downloaded stylesheet reaches Compile. It must return an expression
// or an error, never panic or overflow its stack, and a compiled
// expression keeps its source text.
func FuzzXPathCompile(f *testing.F) {
	for _, src := range []string{
		"/", "//book/title", "book[@id='b1']/title", "ancestor-or-self::*",
		"count(//c) = 3", "string(name)", "sum(price|qty) * 2", "-1 div 0",
		"i[@k='a'][2]", "concat('a', \"b\", substring-before(., ' '))",
		"$v and not(position() = last())", "following-sibling::*[1]/@x",
		"normalize-space(translate(., 'abc', 'ABC'))", "1 + ", "a[", "@",
		strings.Repeat("(", 31) + "1" + strings.Repeat(")", 31),
		strings.Repeat("(", 33) + "1" + strings.Repeat(")", 33),
		strings.Repeat("-", 40) + "1",
		strings.Repeat("a[", 40) + "1" + strings.Repeat("]", 40),
		strings.Repeat("not(", 40) + "1" + strings.Repeat(")", 40),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		if e.Source() != src {
			t.Fatalf("Source() = %q, want %q", e.Source(), src)
		}
	})
}
