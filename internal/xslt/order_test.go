package xslt

import "testing"

// Node-sets come back in document order (XPath 1.0 §2–3): a union is
// not returned in operand order, and a reverse-axis step is not
// returned nearest first. Proximity positions inside predicates still
// count along the axis.
func TestNodeSetsInDocumentOrder(t *testing.T) {
	cases := []struct{ name, body, doc, want string }{
		{"union for-each", `<xsl:for-each select="r/b | r/a"><xsl:value-of select="."/></xsl:for-each>`,
			`<r><a>1</a><b>2</b><a>3</a></r>`, "123"},
		{"union first", `<xsl:value-of select="(r/b | r/a)[1]"/>`,
			`<r><a>1</a><b>2</b><a>3</a></r>`, "1"},
		{"ancestor for-each", `<xsl:for-each select="r/a/b/ancestor::*"><xsl:value-of select="local-name()"/></xsl:for-each>`,
			`<r><a><b/></a></r>`, "ra"},
		{"ancestor string", `<xsl:value-of select="local-name(r/a/b/ancestor::*)"/>`,
			`<r><a><b/></a></r>`, "r"},
		{"preceding-sibling for-each", `<xsl:for-each select="r/d/preceding-sibling::*"><xsl:value-of select="local-name()"/></xsl:for-each>`,
			`<r><a/><c/><d/></r>`, "ac"},
		{"nearest ancestor", `<xsl:value-of select="local-name(r/a/b/ancestor::*[1])"/>`,
			`<r><a><b/></a></r>`, "a"},
	}
	for _, c := range cases {
		sheet := header + `<xsl:output method="text"/><xsl:template match="/">` + c.body + `</xsl:template></xsl:stylesheet>`
		if got := apply(t, sheet, c.doc); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
