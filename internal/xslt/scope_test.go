package xslt

import "testing"

// The tests in this file pin how variable and parameter bindings are
// scoped, including the one place the executor departs from XSLT 1.0:
// a template, called or applied, sees the variables of its caller.

func TestScopeShadowingInNestedBodies(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:variable name="x" select="'outer'"/>
	    <xsl:for-each select="l/i">
	      <xsl:variable name="x" select="concat('item', .)"/>
	      <xsl:if test="true()">
	        <xsl:variable name="x" select="concat($x, '!')"/>
	        <in><xsl:value-of select="$x"/></in>
	      </xsl:if>
	      <mid><xsl:value-of select="$x"/></mid>
	    </xsl:for-each>
	    <out><xsl:value-of select="$x"/></out>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i>1</i><i>2</i></l>`)
	want := `<in>item1!</in><mid>item1</mid><in>item2!</in><mid>item2</mid><out>outer</out>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestScopeRebindingInOneBody(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:variable name="x" select="1"/>
	    <xsl:variable name="x" select="$x + 1"/>
	    <r><xsl:value-of select="$x"/></r>
	  </xsl:template>
	</xsl:stylesheet>`
	if out := apply(t, sheet, `<d/>`); out != "<r>2</r>" {
		t.Errorf("out = %q, want <r>2</r>", out)
	}
}

func TestScopeNoLeakToSiblings(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:if test="true()"><xsl:variable name="a" select="'if'"/></xsl:if>
	    <div><xsl:variable name="b" select="'div'"/><xsl:value-of select="$b"/></div>
	    <xsl:choose><xsl:when test="true()"><xsl:variable name="c" select="'when'"/></xsl:when></xsl:choose>
	    <xsl:variable name="d"><xsl:variable name="e" select="'inner'"/><xsl:value-of select="$e"/></xsl:variable>
	    <xsl:for-each select="l/i"><xsl:variable name="f" select="."/></xsl:for-each>
	    <r a="{$a}" b="{$b}" c="{$c}" d="{$d}" e="{$e}" f="{$f}"/>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i>1</i></l>`)
	want := `<div>div</div><r a="" b="" c="" d="inner" e="" f=""/>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestScopeParamDefaultsAndWithParam(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:variable name="a" select="'caller'"/>
	    <xsl:call-template name="t"/>
	    <xsl:call-template name="t">
	      <xsl:with-param name="a" select="'passed'"/>
	      <xsl:with-param name="b" select="'passed-b'"/>
	      <xsl:with-param name="undeclared" select="'x'"/>
	    </xsl:call-template>
	    <xsl:apply-templates select="l/i">
	      <xsl:with-param name="b" select="'applied'"/>
	    </xsl:apply-templates>
	  </xsl:template>
	  <xsl:template name="t">
	    <xsl:param name="a" select="'default'"/>
	    <xsl:param name="b" select="$a"/>
	    <t a="{$a}" b="{$b}" u="{$undeclared}"/>
	  </xsl:template>
	  <xsl:template match="i">
	    <xsl:param name="b" select="'unused'"/>
	    <xsl:param name="c" select="concat('c', .)"/>
	    <i b="{$b}" c="{$c}"/>
	  </xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i>1</i><i>2</i></l>`)
	// A parameter's default is evaluated in the caller's scope, so $b
	// defaults to the caller's $a, not to the template's own $a.
	want := `<t a="default" b="caller" u=""/><t a="passed" b="passed-b" u=""/>` +
		`<i b="applied" c="c1"/><i b="applied" c="c2"/>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestScopeCalledTemplateSeesCallerVariables(t *testing.T) {
	sheet := header + `
	  <xsl:template match="/">
	    <xsl:variable name="v" select="'from-caller'"/>
	    <xsl:call-template name="callee"/>
	    <xsl:apply-templates select="l/i"/>
	    <after w="{$w}"/>
	  </xsl:template>
	  <xsl:template name="callee">
	    <xsl:variable name="w" select="'callee-local'"/>
	    <c v="{$v}"/>
	  </xsl:template>
	  <xsl:template match="i"><i v="{$v}"/></xsl:template>
	</xsl:stylesheet>`
	out := apply(t, sheet, `<l><i/></l>`)
	want := `<c v="from-caller"/><i v="from-caller"/><after w=""/>`
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}
