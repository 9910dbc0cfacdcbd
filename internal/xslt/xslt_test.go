package xslt

import (
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

func apply(t *testing.T, sheet, doc string) string {
	t.Helper()
	s, err := CompileString(sheet)
	if err != nil {
		t.Fatalf("compile stylesheet: %v", err)
	}
	d, err := xmldoc.ParseString(doc)
	if err != nil {
		t.Fatalf("parse doc: %v", err)
	}
	out, err := s.Apply(d)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return out
}

const header = `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">`

func TestValueOf(t *testing.T) {
	out := apply(t, header+`
	  <xsl:template match="/">
	    <xsl:value-of select="greeting/name"/>
	  </xsl:template>
	</xsl:stylesheet>`,
		`<greeting><name>world</name></greeting>`)
	if out != "world" {
		t.Errorf("out = %q", out)
	}
}

func TestLiteralElementsAndAVT(t *testing.T) {
	out := apply(t, header+`
	  <xsl:template match="/">
	    <html><body id="{item/@id}">
	      <h1><xsl:value-of select="item/title"/></h1>
	    </body></html>
	  </xsl:template>
	</xsl:stylesheet>`,
		`<item id="i7"><title>Observer</title></item>`)
	want := `<html><body id="i7"><h1>Observer</h1></body></html>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestForEachWithPosition(t *testing.T) {
	out := apply(t, header+`
	  <xsl:template match="/">
	    <xsl:for-each select="list/item">
	      <li n="{position()}"><xsl:value-of select="."/></li>
	    </xsl:for-each>
	  </xsl:template>
	</xsl:stylesheet>`,
		`<list><item>a</item><item>b</item></list>`)
	want := `<li n="1">a</li><li n="2">b</li>`
	if out != want {
		t.Errorf("out = %q", out)
	}
}

func TestForEachSort(t *testing.T) {
	out := apply(t, header+`
	  <xsl:template match="/">
	    <xsl:for-each select="list/item">
	      <xsl:sort select="."/>
	      <v><xsl:value-of select="."/></v>
	    </xsl:for-each>
	  </xsl:template>
	</xsl:stylesheet>`,
		`<list><item>c</item><item>a</item><item>b</item></list>`)
	if out != "<v>a</v><v>b</v><v>c</v>" {
		t.Errorf("sorted out = %q", out)
	}
	// Numeric descending.
	out = apply(t, header+`
	  <xsl:template match="/">
	    <xsl:for-each select="l/i">
	      <xsl:sort select="." data-type="number" order="descending"/>
	      <v><xsl:value-of select="."/></v>
	    </xsl:for-each>
	  </xsl:template>
	</xsl:stylesheet>`,
		`<l><i>9</i><i>100</i><i>20</i></l>`)
	if out != "<v>100</v><v>20</v><v>9</v>" {
		t.Errorf("numeric sort = %q", out)
	}
}

func TestIfAndChoose(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:for-each select="l/i">
	      <xsl:if test=". > 5"><big><xsl:value-of select="."/></big></xsl:if>
	      <xsl:choose>
	        <xsl:when test=". = 3"><three/></xsl:when>
	        <xsl:when test=". = 7"><seven/></xsl:when>
	        <xsl:otherwise><other v="{.}"/></xsl:otherwise>
	      </xsl:choose>
	    </xsl:for-each>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i>3</i><i>7</i><i>1</i></l>`)
	want := `<three/><big>7</big><seven/><other v="1"/>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestApplyTemplatesRecursion(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><doc><xsl:apply-templates/></doc></xsl:template>
	  <xsl:template match="section">
	    <sec title="{@title}"><xsl:apply-templates/></sec>
	  </xsl:template>
	  <xsl:template match="para"><p><xsl:value-of select="."/></p></xsl:template>
	</xsl:stylesheet>`
	doc := `<root><section title="one"><para>x</para><para>y</para></section><section title="two"><para>z</para></section></root>`
	out := apply(t, sheet, doc)
	want := `<doc><sec title="one"><p>x</p><p>y</p></sec><sec title="two"><p>z</p></sec></doc>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestBuiltinRulesCopyText(t *testing.T) {
	// No template matches <b>; built-in rules recurse and copy text.
	sheet := header + `
	  <xsl:template match="a"><wrapped><xsl:apply-templates/></wrapped></xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<a>hello <b>bold</b> end</a>`)
	if out != "<wrapped>hello bold end</wrapped>" {
		t.Errorf("out = %q", out)
	}
}

func TestTemplatePriorityAndConflict(t *testing.T) {
	// Name test (priority 0) beats * (priority -0.5); explicit priority
	// beats both; later template wins ties.
	sheet := header + `
	  <xsl:template match="*"><star/></xsl:template>
	  <xsl:template match="item"><named/></xsl:template>
	  <xsl:template match="special" priority="2"><boosted/></xsl:template>
	  <xsl:template match="special"><plain/></xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<root><item/><special/><other/></root>`)
	// root matches * → <star/> (children not processed since template
	// body has no apply-templates)... we need apply-templates in *.
	_ = out
	sheet2 := header + `
	  <xsl:template match="/"><xsl:apply-templates select="root/*"/></xsl:template>
	  <xsl:template match="*"><star/></xsl:template>
	  <xsl:template match="item"><named/></xsl:template>
	  <xsl:template match="special" priority="2"><boosted/></xsl:template>
	  <xsl:template match="special"><plain/></xsl:template>
	</xsl:stylesheet>`
	out2 := apply(t, sheet2, `<root><item/><special/><other/></root>`)
	if out2 != "<named/><boosted/><star/>" {
		t.Errorf("out = %q", out2)
	}
}

func TestPathPatterns(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><xsl:apply-templates select="//name"/></xsl:template>
	  <xsl:template match="community/name"><c><xsl:value-of select="."/></c></xsl:template>
	  <xsl:template match="name"><n><xsl:value-of select="."/></n></xsl:template>
	</xsl:stylesheet>`
	doc := `<root><community><name>mp3</name></community><other><name>x</name></other></root>`
	out := apply(t, sheet, doc)
	if out != "<c>mp3</c><n>x</n>" {
		t.Errorf("out = %q", out)
	}
}

func TestAncestorPattern(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><xsl:apply-templates select="//v"/></xsl:template>
	  <xsl:template match="deep//v"><hit/></xsl:template>
	  <xsl:template match="v"><miss/></xsl:template>
	</xsl:stylesheet>`
	doc := `<r><deep><mid><v/></mid></deep><v/></r>`
	out := apply(t, sheet, doc)
	if out != "<hit/><miss/>" {
		t.Errorf("out = %q", out)
	}
}

func TestNamedTemplatesAndParams(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:call-template name="row">
	      <xsl:with-param name="label" select="'Name'"/>
	      <xsl:with-param name="value" select="obj/name"/>
	    </xsl:call-template>
	    <xsl:call-template name="row"/>
	  </xsl:template>
	  <xsl:template name="row">
	    <xsl:param name="label" select="'?'"/>
	    <xsl:param name="value"/>
	    <tr><td><xsl:value-of select="$label"/></td><td><xsl:value-of select="$value"/></td></tr>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<obj><name>Observer</name></obj>`)
	want := `<tr><td>Name</td><td>Observer</td></tr><tr><td>?</td><td/></tr>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestVariables(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:variable name="n" select="count(l/i)"/>
	    <xsl:variable name="msg">items</xsl:variable>
	    <r><xsl:value-of select="concat($n, ' ', $msg)"/></r>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i/><i/><i/></l>`)
	if out != "<r>3 items</r>" {
		t.Errorf("out = %q", out)
	}
}

func TestVariableScoping(t *testing.T) {
	// A variable bound inside for-each does not leak out.
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:for-each select="l/i">
	      <xsl:variable name="v" select="."/>
	      <x><xsl:value-of select="$v"/></x>
	    </xsl:for-each>
	    <after><xsl:value-of select="$v"/></after>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i>1</i></l>`)
	if out != "<x>1</x><after/>" {
		t.Errorf("out = %q", out)
	}
}

func TestElementAndAttributeInstructions(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:element name="{obj/kind}">
	      <xsl:attribute name="id"><xsl:value-of select="obj/@id"/></xsl:attribute>
	      <xsl:value-of select="obj/title"/>
	    </xsl:element>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<obj id="9"><kind>pattern</kind><title>Visitor</title></obj>`)
	if out != `<pattern id="9">Visitor</pattern>` {
		t.Errorf("out = %q", out)
	}
}

func TestCopyOfAndCopy(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><out><xsl:copy-of select="doc/keep"/></out></xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<doc><keep a="1"><sub>x</sub></keep><drop/></doc>`)
	if out != `<out><keep a="1"><sub>x</sub></keep></out>` {
		t.Errorf("copy-of = %q", out)
	}
	// Identity transform via xsl:copy.
	identity := header + `
	  <xsl:template match="node()">
	    <xsl:copy><xsl:copy-of select="@*"/><xsl:apply-templates/></xsl:copy>
	  </xsl:template>
	</xsl:stylesheet>`
	src := `<a x="1"><b>t</b><c/></a>`
	out2 := apply(t, identity, src)
	want, _ := xmldoc.ParseString(src)
	got, err := xmldoc.ParseString(out2)
	if err != nil {
		t.Fatalf("reparse identity output %q: %v", out2, err)
	}
	if !xmldoc.Equal(want, got) {
		t.Errorf("identity = %q", out2)
	}
}

func TestTextOutputMethod(t *testing.T) {
	sheet := header + `
	  <xsl:output method="text"/>
	  <xsl:template match="/">
	    <xsl:for-each select="l/i"><xsl:value-of select="."/><xsl:text>,</xsl:text></xsl:for-each>
	  </xsl:template>
	</xsl:stylesheet>`
	s, err := CompileString(sheet)
	if err != nil {
		t.Fatal(err)
	}
	if s.output != "text" {
		t.Errorf("method = %q", s.output)
	}
	d := mustParseXML(`<l><i>a</i><i>b</i></l>`)
	out, err := s.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if out != "a,b," {
		t.Errorf("out = %q", out)
	}
}

func TestApplyTemplatesSelectWithSort(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:apply-templates select="l/i"><xsl:sort select="@k"/></xsl:apply-templates>
	  </xsl:template>
	  <xsl:template match="i"><v><xsl:value-of select="@k"/></v></xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i k="b"/><i k="a"/></l>`)
	if out != "<v>a</v><v>b</v>" {
		t.Errorf("out = %q", out)
	}
}

func TestRecursionGuard(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><xsl:call-template name="loop"/></xsl:template>
	  <xsl:template name="loop"><xsl:call-template name="loop"/></xsl:template>
	</xsl:stylesheet>`
	s, err := CompileString(sheet)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Apply(mustParseXML("<x/>"))
	if err == nil || !strings.Contains(err.Error(), "too deep") {
		t.Errorf("err = %v, want recursion guard", err)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"not stylesheet", `<html/>`},
		{"no templates", header + `</xsl:stylesheet>`},
		{"template without match or name", header + `<xsl:template><x/></xsl:template></xsl:stylesheet>`},
		{"bad xpath", header + `<xsl:template match="/"><xsl:value-of select="[[["/></xsl:template></xsl:stylesheet>`},
		{"value-of without select", header + `<xsl:template match="/"><xsl:value-of/></xsl:template></xsl:stylesheet>`},
		{"unknown instruction", header + `<xsl:template match="/"><xsl:frobnicate/></xsl:template></xsl:stylesheet>`},
		{"bad AVT", header + `<xsl:template match="/"><a href="{unclosed"/></xsl:template></xsl:stylesheet>`},
		{"pattern with predicate", header + `<xsl:template match="a[1]"><x/></xsl:template></xsl:stylesheet>`},
		{"duplicate named", header + `<xsl:template name="t"><a/></xsl:template><xsl:template name="t"><b/></xsl:template></xsl:stylesheet>`},
		{"choose without when", header + `<xsl:template match="/"><xsl:choose><xsl:otherwise/></xsl:choose></xsl:template></xsl:stylesheet>`},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := CompileString(tt.src); err == nil {
				t.Errorf("compiled %s without error", tt.name)
			}
		})
	}
}

func TestCallUnknownTemplate(t *testing.T) {
	sheet := header + `<xsl:template match="/"><xsl:call-template name="ghost"/></xsl:template></xsl:stylesheet>`
	s, err := CompileString(sheet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(mustParseXML("<x/>")); err == nil {
		t.Error("calling unknown template succeeded")
	}
}

func TestAVTEscaping(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><a v="{{literal}} {x}"/></xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<x>val</x>`)
	if out != `<a v="{literal} val"/>` {
		t.Errorf("out = %q", out)
	}
}

func TestSchemaToFormTransform(t *testing.T) {
	// A miniature of the paper's Fig. 2: transform an XML Schema into
	// an HTML create form, one input per declared element.
	sheet := header + `
	  <xsl:template match="/">
	    <form action="create">
	      <xsl:for-each select="schema/element/complexType/sequence/element">
	        <label><xsl:value-of select="@name"/></label>
	        <input name="{@name}" type="text"/>
	      </xsl:for-each>
	    </form>
	  </xsl:template>
	</xsl:stylesheet>`
	schema := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	  <element name="song"><complexType><sequence>
	    <element name="title" type="xsd:string"/>
	    <element name="artist" type="xsd:string"/>
	  </sequence></complexType></element>
	</schema>`
	out := apply(t, sheet, schema)
	want := `<form action="create"><label>title</label><input name="title" type="text"/><label>artist</label><input name="artist" type="text"/></form>`
	if out != want {
		t.Errorf("form = %q, want %q", out, want)
	}
}

func TestApplyNodes(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><a/><b/><xsl:text>tail</xsl:text></xsl:template>
	</xsl:stylesheet>`
	s, err := CompileString(sheet)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := s.ApplyNodes(mustParseXML("<x/>"))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	if nodes[0].Name != "a" || nodes[2].Data != "tail" {
		t.Errorf("nodes = %v", nodes)
	}
	if _, err := s.ApplyNodes(nil); err == nil {
		t.Error("nil doc accepted")
	}
}
