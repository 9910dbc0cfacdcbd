package xslt

import (
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

func TestApplyTemplatesWithParams(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:apply-templates select="list/item">
	      <xsl:with-param name="tag" select="'li'"/>
	    </xsl:apply-templates>
	  </xsl:template>
	  <xsl:template match="item">
	    <xsl:param name="tag" select="'div'"/>
	    <xsl:element name="{$tag}"><xsl:value-of select="."/></xsl:element>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<list><item>a</item><item>b</item></list>`)
	if out != "<li>a</li><li>b</li>" {
		t.Errorf("out = %q", out)
	}
}

func TestParamDefaultUsedWithoutWithParam(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><xsl:apply-templates select="l/i"/></xsl:template>
	  <xsl:template match="i">
	    <xsl:param name="tag" select="'span'"/>
	    <xsl:element name="{$tag}"/>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i/></l>`)
	if out != "<span/>" {
		t.Errorf("out = %q", out)
	}
}

func TestNestedForEachPositions(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:for-each select="m/row">
	      <xsl:for-each select="cell">
	        <c p="{position()}"><xsl:value-of select="."/></c>
	      </xsl:for-each>
	      <eol r="{position()}"/>
	    </xsl:for-each>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<m><row><cell>a</cell><cell>b</cell></row><row><cell>c</cell></row></m>`)
	want := `<c p="1">a</c><c p="2">b</c><eol r="1"/><c p="1">c</c><eol r="2"/>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestLastFunctionInTemplate(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:for-each select="l/i">
	      <xsl:value-of select="."/>
	      <xsl:if test="position() != last()"><xsl:text>, </xsl:text></xsl:if>
	    </xsl:for-each>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i>x</i><i>y</i><i>z</i></l>`)
	if out != "x, y, z" {
		t.Errorf("out = %q", out)
	}
}

func TestAttributePatternTemplate(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><xsl:apply-templates select="e/@*"/></xsl:template>
	  <xsl:template match="@id"><id><xsl:value-of select="."/></id></xsl:template>
	  <xsl:template match="@*"><other name="{name()}"/></xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<e id="7" class="x"/>`)
	if out != `<id>7</id><other name="class"/>` {
		t.Errorf("out = %q", out)
	}
}

func TestChooseFirstMatchingWhenWins(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:choose>
	      <xsl:when test="true()"><first/></xsl:when>
	      <xsl:when test="true()"><second/></xsl:when>
	    </xsl:choose>
	  </xsl:template>
	</xsl:stylesheet>`
	if out := apply(t, sheet, `<x/>`); out != "<first/>" {
		t.Errorf("out = %q", out)
	}
}

func TestTextEscapingInOutput(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><v><xsl:value-of select="d"/></v></xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<d>a &lt; b &amp; c</d>`)
	back, err := xmldoc.ParseString(out)
	if err != nil {
		t.Fatalf("output not well-formed: %v\n%s", err, out)
	}
	if back.Text() != "a < b & c" {
		t.Errorf("text = %q", back.Text())
	}
}

func TestVariableHoldingNodeSet(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:variable name="items" select="l/i[. > 2]"/>
	    <n><xsl:value-of select="count($items)"/></n>
	    <xsl:for-each select="$items"><v><xsl:value-of select="."/></v></xsl:for-each>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i>1</i><i>3</i><i>5</i></l>`)
	if out != "<n>2</n><v>3</v><v>5</v>" {
		t.Errorf("out = %q", out)
	}
}

func TestModeLessTemplatesCompose(t *testing.T) {
	// Two stylesheets applied in sequence: schema -> intermediate ->
	// final, the composition pattern the indexing pipeline uses.
	first := MustCompileString(header + `
	  <xsl:template match="/">
	    <mid><xsl:for-each select="src/v"><x><xsl:value-of select="."/></x></xsl:for-each></mid>
	  </xsl:template>
	</xsl:stylesheet>`)
	second := MustCompileString(header + `
	  <xsl:template match="/"><out n="{count(mid/x)}"/></xsl:template>
	</xsl:stylesheet>`)
	midNodes, err := first.ApplyNodes(mustParseXML(`<src><v>1</v><v>2</v></src>`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := second.Apply(midNodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if out != `<out n="2"/>` {
		t.Errorf("out = %q", out)
	}
}

func TestCommentsInStylesheetIgnored(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/"><!-- produces nothing --><y/></xsl:template>
	</xsl:stylesheet>`
	if out := apply(t, sheet, `<x/>`); out != "<y/>" {
		t.Errorf("out = %q", out)
	}
}

func TestWhitespaceTextPreservedViaXslText(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">a<xsl:text> </xsl:text>b</xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<x/>`)
	if !strings.Contains(out, "a b") {
		t.Errorf("out = %q", out)
	}
}

func TestDeepDocumentTransform(t *testing.T) {
	// Build a deep document and run the identity transform: exercises
	// recursion bookkeeping below the guard threshold.
	var b strings.Builder
	const depth = 100
	for i := 0; i < depth; i++ {
		b.WriteString("<d>")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString("</d>")
	}
	identity := header + `
	  <xsl:template match="node()">
	    <xsl:copy><xsl:apply-templates/></xsl:copy>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, identity, b.String())
	if !strings.Contains(out, "x") || strings.Count(out, "<d>") != depth {
		t.Errorf("deep identity lost structure: %d <d> tags", strings.Count(out, "<d>"))
	}
}

// mustParseXML parses a document the test spells out.
func mustParseXML(s string) *xmldoc.Node {
	n, err := xmldoc.ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}
