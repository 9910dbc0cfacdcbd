package xpath

import "testing"

func names(v Value) string {
	s := ""
	for _, n := range v.Nodes {
		s += n.LocalName() + n.Data
	}
	return s
}

// TestResultsInDocumentOrder: unions and reverse axes return node-sets
// in document order; a predicate on a reverse axis still counts from
// the context node outward.
func TestResultsInDocumentOrder(t *testing.T) {
	d := mustParseXML(`<r><a><b><c/></b></a><x/><y/><z/></r>`)
	cases := []struct{ src, want string }{
		{"z | x | y", "xyz"},
		{"(z | x)[1]", "x"},
		{"a/b/c/ancestor::*", "rab"},
		{"a/b/c/ancestor-or-self::*", "rabc"},
		{"a/b/c/ancestor::*[1]", "b"},
		{"z/preceding-sibling::*", "axy"},
		{"z/preceding-sibling::*[1]", "y"},
		{"a/b/c/ancestor::* | y", "raby"},
		{"@k | a", "a"},
	}
	for _, c := range cases {
		if got := names(mustCompile(c.src).Eval(d)); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
}
