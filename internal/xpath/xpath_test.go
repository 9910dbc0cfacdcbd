package xpath

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmldoc"
)

const testDoc = `
<library>
  <book id="b1" year="1994">
    <title>Design Patterns</title>
    <author>Gamma</author>
    <author>Helm</author>
    <price>54.99</price>
  </book>
  <book id="b2" year="1999">
    <title>Refactoring</title>
    <author>Fowler</author>
    <price>47.50</price>
  </book>
  <journal id="j1">
    <title>IEEE Internet Computing</title>
  </journal>
</library>`

func doc(t *testing.T) *xmldoc.Node {
	t.Helper()
	n, err := xmldoc.ParseString(testDoc)
	if err != nil {
		t.Fatalf("parse test doc: %v", err)
	}
	return n
}

func sel(t *testing.T, n *xmldoc.Node, src string) []*xmldoc.Node {
	t.Helper()
	e, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return e.Eval(n).Nodes
}

func TestSelectBasics(t *testing.T) {
	d := doc(t)
	tests := []struct {
		src  string
		want int
	}{
		{"book", 3}, // from root element: no children named book? actually library is context; book children = 2... see below
	}
	_ = tests
	if got := len(sel(t, d, "book")); got != 2 {
		t.Errorf("book = %d, want 2", got)
	}
	if got := len(sel(t, d, "*")); got != 3 {
		t.Errorf("* = %d, want 3", got)
	}
	if got := len(sel(t, d, "book/author")); got != 3 {
		t.Errorf("book/author = %d, want 3", got)
	}
	if got := len(sel(t, d, "//author")); got != 3 {
		t.Errorf("//author = %d, want 3", got)
	}
	if got := len(sel(t, d, "/library/book")); got != 2 {
		t.Errorf("/library/book = %d, want 2", got)
	}
	if got := len(sel(t, d, "journal|book")); got != 3 {
		t.Errorf("union = %d, want 3", got)
	}
}

func TestPredicates(t *testing.T) {
	d := doc(t)
	if got := sel(t, d, "book[1]/title")[0].Text(); got != "Design Patterns" {
		t.Errorf("book[1]/title = %q", got)
	}
	if got := sel(t, d, "book[2]/title")[0].Text(); got != "Refactoring" {
		t.Errorf("book[2]/title = %q", got)
	}
	if got := sel(t, d, "book[last()]/title")[0].Text(); got != "Refactoring" {
		t.Errorf("book[last()] = %q", got)
	}
	if got := len(sel(t, d, "book[@year='1994']")); got != 1 {
		t.Errorf("attr predicate = %d", got)
	}
	if got := len(sel(t, d, "book[author='Fowler']")); got != 1 {
		t.Errorf("child-value predicate = %d", got)
	}
	if got := len(sel(t, d, "book[price>50]")); got != 1 {
		t.Errorf("numeric predicate = %d", got)
	}
	if got := len(sel(t, d, "book[count(author)=2]")); got != 1 {
		t.Errorf("count predicate = %d", got)
	}
	if got := len(sel(t, d, "book[position()=2]")); got != 1 {
		t.Errorf("position predicate = %d", got)
	}
}

func TestAttributes(t *testing.T) {
	d := doc(t)
	attrs := sel(t, d, "book/@id")
	if len(attrs) != 2 {
		t.Fatalf("@id count = %d", len(attrs))
	}
	if attrs[0].Kind != xmldoc.KindAttribute || attrs[0].Data != "b1" {
		t.Errorf("first @id = %+v", attrs[0])
	}
	all := sel(t, d, "book[1]/@*")
	if len(all) != 2 {
		t.Errorf("@* = %d, want 2", len(all))
	}
}

func TestAxes(t *testing.T) {
	d := doc(t)
	title := sel(t, d, "book[1]/title")[0]
	if got := first(mustCompile("..").Eval(title).Nodes); got == nil || got.LocalName() != "book" {
		t.Errorf(".. = %v", got)
	}
	if got := mustCompile("ancestor::library").Eval(title).Nodes; len(got) != 1 {
		t.Errorf("ancestor = %d", len(got))
	}
	if got := mustCompile("ancestor-or-self::*").Eval(title).Nodes; len(got) != 3 {
		t.Errorf("ancestor-or-self = %d", len(got))
	}
	if got := mustCompile("following-sibling::*").Eval(title).Nodes; len(got) != 3 {
		t.Errorf("following-sibling = %d, want 3 (2 authors + price)", len(got))
	}
	authors := sel(t, d, "book[1]/author")
	if got := mustCompile("preceding-sibling::title").Eval(authors[0]).Nodes; len(got) != 1 {
		t.Errorf("preceding-sibling = %d", len(got))
	}
	if got := mustCompile("descendant::title").Eval(d).Nodes; len(got) != 3 {
		t.Errorf("descendant = %d", len(got))
	}
	if got := mustCompile("self::book").Eval(authors[0]).Nodes; len(got) != 0 {
		t.Errorf("self::book on author = %d", len(got))
	}
	if got := mustCompile("descendant-or-self::book").Eval(d).Nodes; len(got) != 2 {
		t.Errorf("descendant-or-self::book = %d", len(got))
	}
}

func TestTextNodes(t *testing.T) {
	d := doc(t)
	texts := sel(t, d, "book[1]/title/text()")
	if len(texts) != 1 || texts[0].Data != "Design Patterns" {
		t.Errorf("text() = %v", texts)
	}
	nodes := sel(t, d, "book[1]/node()")
	if len(nodes) != 4 {
		t.Errorf("node() = %d, want 4 elements", len(nodes))
	}
}

func TestStringFunctions(t *testing.T) {
	d := doc(t)
	tests := []struct {
		src, want string
	}{
		{"string(book[1]/title)", "Design Patterns"},
		{"concat('a', 'b', 'c')", "abc"},
		{"substring('hello', 2)", "ello"},
		{"substring('hello', 2, 3)", "ell"},
		{"substring-before('key=value', '=')", "key"},
		{"substring-after('key=value', '=')", "value"},
		{"normalize-space('  a   b  ')", "a b"},
		{"translate('abc', 'abc', 'ABC')", "ABC"},
		{"translate('abcd', 'abc', 'A')", "Ad"},
		{"name(book[1])", "book"},
		{"local-name(book[1])", "book"},
	}
	for _, tt := range tests {
		e, err := Compile(tt.src)
		if err != nil {
			t.Errorf("compile %q: %v", tt.src, err)
			continue
		}
		if got := e.Eval(d).String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestBooleanAndNumberFunctions(t *testing.T) {
	d := doc(t)
	boolTests := []struct {
		src  string
		want bool
	}{
		{"contains('design patterns', 'pattern')", true},
		{"starts-with('gnutella', 'gnu')", true},
		{"starts-with('gnutella', 'nap')", false},
		{"not(false())", true},
		{"true()", true},
		{"boolean(book)", true},
		{"boolean(missing)", false},
		{"count(book) = 2", true},
		{"book/price > 50", true},
		{"book/price > 60", false},
		{"string-length('abc') = 3", true},
	}
	for _, tt := range boolTests {
		if got := mustCompile(tt.src).EvalBool(d); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
	numTests := []struct {
		src  string
		want float64
	}{
		{"count(//author)", 3},
		{"sum(book/price)", 102.49},
		{"floor(2.7)", 2},
		{"ceiling(2.1)", 3},
		{"round(2.5)", 3},
		{"round(-2.5)", -2},
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 div 4", 2.5},
		{"10 mod 3", 1},
		{"-5 + 2", -3},
	}
	for _, tt := range numTests {
		got := mustCompile(tt.src).Eval(d).Number()
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestNumberFormatting(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"string(3)", "3"},
		{"string(3.5)", "3.5"},
		{"string(1 div 0)", "Infinity"},
		{"string(-1 div 0)", "-Infinity"},
		{"string(number('junk'))", "NaN"},
	}
	n := xmldoc.NewElement("x")
	for _, tt := range tests {
		if got := mustCompile(tt.src).Eval(n).String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestVariables(t *testing.T) {
	d := doc(t)
	e := mustCompile("book[@id = $want]/title")
	env := &Env{Vars: []Binding{{Name: "want", Value: StringValue("b2")}}}
	v := e.EvalEnv(d, env)
	if len(v.Nodes) != 1 || v.Nodes[0].Text() != "Refactoring" {
		t.Errorf("variable predicate = %v", v.Nodes)
	}
	// Unbound variable: empty string.
	if got := mustCompile("$missing").Eval(d).String(); got != "" {
		t.Errorf("unbound var = %q", got)
	}
}

func TestPrefixedNameMatching(t *testing.T) {
	schema := `<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="community"><complexType><sequence><element name="name" type="xsd:string"/></sequence></complexType></element></schema>`
	d, err := xmldoc.ParseString(schema)
	if err != nil {
		t.Fatal(err)
	}
	// Unprefixed test matches prefixed nodes.
	if got := len(sel(t, d, "//element")); got != 2 {
		t.Errorf("//element = %d, want 2", got)
	}
	// Prefixed test matches exactly.
	if got := len(sel(t, d, "//xsd:element")); got != 2 {
		t.Errorf("//xsd:element = %d, want 2", got)
	}
	if got := mustCompile("element/@name").Eval(d).String(); got != "community" {
		t.Errorf("@name = %q", got)
	}
}

func TestRootAndAbsolutePaths(t *testing.T) {
	d := doc(t)
	deep := sel(t, d, "book[1]/author")[0]
	if got := len(mustCompile("/library").Eval(deep).Nodes); got != 1 {
		t.Errorf("absolute path from deep node = %d", got)
	}
	if got := len(mustCompile("//book").Eval(deep).Nodes); got != 2 {
		t.Errorf("// from deep node = %d", got)
	}
	if got := mustCompile("/").Eval(deep).Nodes; len(got) != 1 || got[0].Name != "library" {
		t.Errorf("/ = %v", got)
	}
}

func TestFilterExprWithPath(t *testing.T) {
	d := doc(t)
	// Parenthesized expression followed by a path.
	if got := len(sel(t, d, "(book|journal)/title")); got != 3 {
		t.Errorf("(union)/title = %d", got)
	}
	if got := len(sel(t, d, "(//book)[1]/author")); got != 2 {
		t.Errorf("(//book)[1]/author = %d", got)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"book[",
		"book]",
		"@",
		"unknownfn()",
		"book[@]",
		"'unterminated",
		"a ! b",
		"1 +",
		"//",
		"$",
		"axis-typo::x",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestNodeSetComparisons(t *testing.T) {
	d := doc(t)
	// Existential semantics: any author equals.
	if !mustCompile("book/author = 'Fowler'").EvalBool(d) {
		t.Error("existential = failed")
	}
	// != is also existential: some author != 'Fowler' is true.
	if !mustCompile("book/author != 'Fowler'").EvalBool(d) {
		t.Error("existential != failed")
	}
	// Node-set vs node-set.
	if !mustCompile("book[1]/title = //title").EvalBool(d) {
		t.Error("nodeset vs nodeset = failed")
	}
	// Empty node-set compares false.
	if mustCompile("missing = 'x'").EvalBool(d) {
		t.Error("empty nodeset = value should be false")
	}
}

func TestEvalOnAttributeContext(t *testing.T) {
	d := doc(t)
	attr := sel(t, d, "book[1]/@id")[0]
	if got := mustCompile("string(.)").Eval(attr).String(); got != "b1" {
		t.Errorf("string(attr) = %q", got)
	}
	if got := first(mustCompile("..").Eval(attr).Nodes); got == nil || got.LocalName() != "book" {
		t.Errorf("parent of attribute = %v", got)
	}
}

// Property: compiling and evaluating any expression built from a safe
// grammar never panics and Select never returns nil nodes.
func TestPropertyNoPanics(t *testing.T) {
	d := doc(t)
	parts := []string{"book", "author", "title", "@id", "*", "text()", "..", "."}
	f := func(a, b, c uint8) bool {
		src := parts[int(a)%len(parts)] + "/" + parts[int(b)%len(parts)]
		if c%2 == 0 {
			src = "//" + src
		}
		e, err := Compile(src)
		if err != nil {
			// Some combinations are invalid (e.g. @id/..); that's fine
			// as long as it's an error, not a panic.
			return true
		}
		for _, n := range e.Eval(d).Nodes {
			if n == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: position predicates partition — book[1] and book[2]
// together equal book.
func TestPropertyPositionPartition(t *testing.T) {
	d := doc(t)
	all := sel(t, d, "book")
	var parts []*xmldoc.Node
	for i := 1; i <= len(all); i++ {
		parts = append(parts, sel(t, d, "book["+itoa(i)+"]")...)
	}
	if len(parts) != len(all) {
		t.Fatalf("partition size %d != %d", len(parts), len(all))
	}
	for i := range all {
		if all[i] != parts[i] {
			t.Errorf("partition order differs at %d", i)
		}
	}
}

// mustCompile compiles an expression the test spells out.
func mustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// first returns the first node of ns, or nil.
func first(ns []*xmldoc.Node) *xmldoc.Node {
	if len(ns) == 0 {
		return nil
	}
	return ns[0]
}

func itoa(i int) string {
	return strings.TrimSpace(strings.Repeat("", 0) + string(rune('0'+i)))
}

func TestSelectHelper(t *testing.T) {
	d := doc(t)
	if ns := mustCompile("book/title").Eval(d).Nodes; len(ns) != 2 {
		t.Errorf("book/title selected %d nodes, want 2", len(ns))
	}
	if ns := mustCompile("count(book)").Eval(d).Nodes; ns != nil {
		t.Errorf("a number selected nodes: %v", ns)
	}
	if _, err := Compile("[["); err == nil {
		t.Error("Compile of a bad expression: no error")
	}
}

func TestSourceAccessor(t *testing.T) {
	e := mustCompile("book/title")
	if e.Source() != "book/title" {
		t.Errorf("Source = %q", e.Source())
	}
}
