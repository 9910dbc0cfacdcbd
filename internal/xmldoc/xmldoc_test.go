package xmldoc

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	doc, err := ParseString(`<root a="1"><child>hello</child><child b="2"/></root>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if doc.Name != "root" {
		t.Errorf("root name = %q, want root", doc.Name)
	}
	if v, ok := doc.Attr("a"); !ok || v != "1" {
		t.Errorf("attr a = %q,%v want 1,true", v, ok)
	}
	kids := doc.Elements()
	if len(kids) != 2 {
		t.Fatalf("children = %d, want 2", len(kids))
	}
	if got := kids[0].Text(); got != "hello" {
		t.Errorf("child text = %q, want hello", got)
	}
	if v, ok := kids[1].Attr("b"); !ok || v != "2" {
		t.Errorf("second child attr b = %q,%v", v, ok)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"empty", ""},
		{"unclosed", "<a><b></a>"},
		{"junk", "not xml at all <"},
		{"two roots", "<a/><b/>"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tt.in)
			}
		})
	}
}

func TestNamespacePrefixing(t *testing.T) {
	doc, err := ParseString(`<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="x"/></schema>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if doc.Name != "xsd:schema" {
		t.Errorf("name = %q, want xsd:schema", doc.Name)
	}
	if doc.LocalName() != "schema" {
		t.Errorf("local = %q, want schema", doc.LocalName())
	}
	if doc.Prefix() != "xsd" {
		t.Errorf("prefix = %q, want xsd", doc.Prefix())
	}
	el := doc.Child("element")
	if el == nil {
		t.Fatal("child element not found via local name")
	}
	if el.Name != "xsd:element" {
		t.Errorf("child name = %q", el.Name)
	}
}

func TestXSLNamespace(t *testing.T) {
	doc := mustParse(`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0"><xsl:template match="/"/></xsl:stylesheet>`)
	if doc.Name != "xsl:stylesheet" {
		t.Errorf("name = %q", doc.Name)
	}
	if tpl := doc.Child("template"); tpl == nil {
		t.Error("template child missing")
	}
}

func TestWhitespaceDropped(t *testing.T) {
	doc := mustParse("<a>\n  <b>x</b>\n  <c> y z </c>\n</a>")
	if len(doc.Children) != 2 {
		t.Fatalf("children = %d, want 2 (whitespace text dropped)", len(doc.Children))
	}
	if got := doc.Child("c").Text(); got != " y z " {
		t.Errorf("c text = %q, want ' y z ' preserved", got)
	}
}

func TestFindAndChildText(t *testing.T) {
	doc := mustParse(`<community><name>mp3</name><nested><deep>v</deep></nested></community>`)
	if got := doc.ChildText("name"); got != "mp3" {
		t.Errorf("ChildText = %q", got)
	}
	if n := doc.Child("nested").Child("deep"); n == nil || n.Text() != "v" {
		t.Errorf("nested/deep = %v", n)
	}
	if n := doc.Child("nested").Child("missing"); n != nil {
		t.Errorf("nested/missing = %v, want nil", n)
	}
}

func TestSetChildText(t *testing.T) {
	doc := NewElement("obj")
	doc.SetChildText("title", "first")
	doc.SetChildText("title", "second")
	if got := doc.ChildText("title"); got != "second" {
		t.Errorf("title = %q, want second", got)
	}
	if n := len(doc.ChildrenNamed("title")); n != 1 {
		t.Errorf("title elements = %d, want 1", n)
	}
}

func TestAttrOps(t *testing.T) {
	n := NewElement("e")
	n.SetAttr("k", "v1")
	n.SetAttr("k", "v2")
	if v, _ := n.Attr("k"); v != "v2" {
		t.Errorf("attr = %q", v)
	}
	if len(n.Attrs) != 1 {
		t.Errorf("attrs = %d, want 1", len(n.Attrs))
	}
	if got := n.AttrDefault("missing", "d"); got != "d" {
		t.Errorf("AttrDefault = %q", got)
	}
	if !n.RemoveAttr("k") {
		t.Error("RemoveAttr existing = false")
	}
	if n.RemoveAttr("k") {
		t.Error("RemoveAttr absent = true")
	}
}

func TestInsertRemoveChild(t *testing.T) {
	p := NewElement("p")
	a, b, c := NewElement("a"), NewElement("b"), NewElement("c")
	p.AppendChild(a)
	p.AppendChild(b)
	p.AppendChild(c)
	names := []string{}
	for _, ch := range p.Children {
		names = append(names, ch.Name)
	}
	if !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Errorf("order = %v", names)
	}
	if !p.RemoveChild(b) {
		t.Error("RemoveChild = false")
	}
	if b.Parent != nil {
		t.Error("removed child still has parent")
	}
	if p.RemoveChild(b) {
		t.Error("double remove = true")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := mustParse(`<a x="1"><b><c>t</c></b></a>`)
	cl := orig.Clone()
	if !Equal(orig, cl) {
		t.Fatal("clone not equal to original")
	}
	cl.Child("b").Child("c").Children[0].Data = "changed"
	if orig.Child("b").Child("c").Text() != "t" {
		t.Error("mutating clone affected original")
	}
	if cl.Parent != nil {
		t.Error("clone has parent")
	}
}

func TestEqualIgnoresAttrOrderAndComments(t *testing.T) {
	a := mustParse(`<e x="1" y="2"><!--c--><k/></e>`)
	b := mustParse(`<e y="2" x="1"><k/></e>`)
	if !Equal(a, b) {
		t.Error("Equal = false, want true")
	}
	c := mustParse(`<e y="2" x="ZZZ"><k/></e>`)
	if Equal(a, c) {
		t.Error("Equal with differing attr = true")
	}
}

func TestWalkPrune(t *testing.T) {
	doc := mustParse(`<a><skip><inner/></skip><keep/></a>`)
	var visited []string
	doc.Walk(func(n *Node) bool {
		if n.Kind != KindElement {
			return true
		}
		visited = append(visited, n.Name)
		return n.Name != "skip"
	})
	if !reflect.DeepEqual(visited, []string{"a", "skip", "keep"}) {
		t.Errorf("visited = %v", visited)
	}
}

func TestDepthRootIndex(t *testing.T) {
	doc := mustParse(`<a><b><c/></b><d/></a>`)
	c := doc.Child("b").Child("c")
	if c.Parent.Parent != doc {
		t.Error("c is not two levels below the root")
	}
	if c.Root() != doc {
		t.Error("Root() wrong")
	}
	d := doc.Child("d")
	if d.Index() != 1 {
		t.Errorf("index = %d", d.Index())
	}
	if doc.Index() != -1 {
		t.Errorf("detached index = %d", doc.Index())
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := NewElement("e")
	n.SetAttr("a", `va"l<&`)
	n.AppendChild(NewText("x < y & z > w"))
	out := n.String()
	reparsed, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if got := reparsed.Text(); got != "x < y & z > w" {
		t.Errorf("text after round trip = %q", got)
	}
	if v, _ := reparsed.Attr("a"); v != `va"l<&` {
		t.Errorf("attr after round trip = %q", v)
	}
}

func TestRoundTripStable(t *testing.T) {
	src := `<community protocol="Gnutella"><name>design patterns</name><keywords>gof, oo</keywords><nested><deep attr="v">text</deep></nested></community>`
	doc := mustParse(src)
	once := doc.String()
	again := mustParse(once).String()
	if once != again {
		t.Errorf("serialization not a fixed point:\n%s\n%s", once, again)
	}
}

// genTree builds a random small tree for property tests.
func genTree(r *rand.Rand, depth int) *Node {
	names := []string{"a", "b", "community", "name", "item"}
	n := NewElement(names[r.Intn(len(names))])
	if r.Intn(2) == 0 {
		n.SetAttr("k"+string(rune('a'+r.Intn(3))), randText(r))
	}
	kids := r.Intn(3)
	for i := 0; i < kids; i++ {
		if depth <= 0 || r.Intn(2) == 0 {
			if s := randText(r); strings.TrimSpace(s) != "" {
				n.AppendChild(NewText(s))
			}
		} else {
			n.AppendChild(genTree(r, depth-1))
		}
	}
	return n
}

func randText(r *rand.Rand) string {
	alphabet := "abc <>&\"xyz"
	ln := r.Intn(8) + 1
	var b strings.Builder
	for i := 0; i < ln; i++ {
		b.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

// Property: serialize → parse is identity (modulo whitespace-only text,
// which genTree never produces, and text-node merging).
func TestPropertySerializeParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genTree(r, 3)
		mergeAdjacentText(tree)
		dropSpaceOnlyText(tree)
		out := tree.String()
		back, err := ParseString(out)
		if err != nil {
			t.Logf("seed %d: reparse error %v on %q", seed, err, out)
			return false
		}
		if !Equal(tree, back) {
			t.Logf("seed %d: tree mismatch\nout: %s\nback: %s", seed, out, back.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mergeAdjacentText(n *Node) {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == KindText && len(out) > 0 && out[len(out)-1].Kind == KindText {
			out[len(out)-1].Data += c.Data
			continue
		}
		out = append(out, c)
		if c.Kind == KindElement {
			mergeAdjacentText(c)
		}
	}
	n.Children = out
}

func dropSpaceOnlyText(n *Node) {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == KindText && strings.TrimSpace(c.Data) == "" {
			continue
		}
		out = append(out, c)
		if c.Kind == KindElement {
			dropSpaceOnlyText(c)
		}
	}
	n.Children = out
}

// Property: Clone never aliases: structural equality plus pointer
// disjointness at every node.
func TestPropertyCloneDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genTree(r, 3)
		cl := tree.Clone()
		if !Equal(tree, cl) {
			return false
		}
		seen := map[*Node]bool{}
		tree.Walk(func(n *Node) bool { seen[n] = true; return true })
		disjoint := true
		cl.Walk(func(n *Node) bool {
			if seen[n] {
				disjoint = false
			}
			return true
		})
		return disjoint
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTextAggregation(t *testing.T) {
	doc := mustParse(`<p>one<b>two</b>three</p>`)
	if got := doc.Text(); got != "onetwothree" {
		t.Errorf("Text = %q", got)
	}
}

func TestKindString(t *testing.T) {
	if KindElement.String() != "element" || KindText.String() != "text" || KindComment.String() != "comment" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

// mustParse parses a document the test spells out.
func mustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// TestTextRunsJoinInLinearTime: a text split into many CDATA runs (a
// stranger's document can hold a million in one frame) becomes one text
// node without copying the text gathered so far at every run, which
// made parsing quadratic in the number of runs: 2 000 runs of 8 bytes
// allocated 16 MB.
func TestTextRunsJoinInLinearTime(t *testing.T) {
	const runs = 2000
	src := "<a>" + strings.Repeat("<![CDATA[abcdefgh]]>", runs) + "</a>"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	doc, err := ParseString(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Children) != 1 || len(doc.Children[0].Data) != 8*runs {
		t.Fatalf("got %d children, want one text node of %d bytes", len(doc.Children), 8*runs)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 50*uint64(len(src)) {
		t.Errorf("parsing %d bytes allocated %d", len(src), b)
	}
}
