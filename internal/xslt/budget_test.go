package xslt_test

import (
	"errors"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/stylegen"
	"repro/internal/xmldoc"
	"repro/internal/xsd"
	"repro/internal/xslt"
)

const head = `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">`

// doubling calls itself twice per level: 2^31 calls from n = 30, far
// inside maxDepth.
const doubling = head + `
  <xsl:template match="/">
    <xsl:call-template name="t"><xsl:with-param name="n" select="30"/></xsl:call-template>
  </xsl:template>
  <xsl:template name="t">
    <xsl:param name="n"/>
    <xsl:if test="$n &gt; 0">
      <xsl:call-template name="t"><xsl:with-param name="n" select="$n - 1"/></xsl:call-template>
      <xsl:call-template name="t"><xsl:with-param name="n" select="$n - 1"/></xsl:call-template>
    </xsl:if>
  </xsl:template>
</xsl:stylesheet>`

func TestBudgetStopsDoublingRecursion(t *testing.T) {
	s := xslt.MustCompileString(doubling)
	start := time.Now()
	_, err := s.Apply(xmldoc.NewElement("x"))
	elapsed := time.Since(start)
	if !errors.Is(err, xslt.ErrBudget) || errs.Code(err) != "xslt.budget" {
		t.Fatalf("err = %v (code %q), want ErrBudget with code xslt.budget", err, errs.Code(err))
	}
	if elapsed > time.Second && !raceEnabled {
		t.Errorf("the budget stopped the transform after %v, want under a second", elapsed)
	}
}

func TestBudgetStopsOutputAndSelection(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 200; i++ {
		b.WriteString("<i>0123456789</i>")
	}
	b.WriteString("</r>")
	doc, err := xmldoc.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		// 200^3 nodes selected, a few instructions each.
		"selection": `<xsl:for-each select="//i"><xsl:for-each select="//i"><xsl:for-each select="//i"/></xsl:for-each></xsl:for-each>`,
		// 200^2 copies of the document, 3.4 KB each.
		"output": `<xsl:for-each select="//i"><xsl:for-each select="//i"><xsl:copy-of select="/r"/></xsl:for-each></xsl:for-each>`,
	} {
		s := xslt.MustCompileString(head + `<xsl:template match="/">` + body + `</xsl:template></xsl:stylesheet>`)
		steps, selected, written, err := xslt.Usage(s, doc)
		if !errors.Is(err, xslt.ErrBudget) {
			t.Errorf("%s: err = %v, want ErrBudget", name, err)
		}
		t.Logf("%s: stopped at %d steps, %d selected, %d bytes", name, steps, selected, written)
	}
}

// shipped is every stylesheet U-P2P ships: the three built-ins, the
// display stylesheet of the design-patterns example and the generated
// indexing stylesheet of every corpus schema.
func shipped(t testing.TB) map[string]*xslt.Stylesheet {
	sheets := map[string]*xslt.Stylesheet{
		"create": stylegen.DefaultCreate(),
		"search": stylegen.DefaultSearch(),
		"view":   stylegen.DefaultView(),
	}
	src, err := os.ReadFile("../../examples/designpatterns/main.go")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	start := strings.Index(text, "const customPatternView = `")
	if start < 0 {
		t.Fatal("the design-patterns example no longer declares customPatternView")
	}
	text = text[start+len("const customPatternView = `"):]
	sheets["example display"] = xslt.MustCompileString(text[:strings.IndexByte(text, '`')])
	for _, name := range corpus.Names() {
		c, err := corpus.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := xsd.ParseString(c.SchemaSrc)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := stylegen.GenerateIndexingStylesheet(s)
		if err != nil {
			t.Fatal(err)
		}
		sheets["index "+name] = xslt.MustCompileString(gen)
	}
	return sheets
}

// TestShippedStylesheetsHeadroom applies every shipped stylesheet to
// every document of its kind in every corpus — schemas for the form
// stylesheets, objects for the others — and requires each to stay at
// least 100 times inside every limit of the Apply budget.
func TestShippedStylesheetsHeadroom(t *testing.T) {
	var schemas, objects []*xmldoc.Node
	schemas = append(schemas, core.RootCommunity().Schema.Doc())
	for _, name := range corpus.Names() {
		c, err := corpus.ByName(name, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := xsd.ParseString(c.SchemaSrc)
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, s.Doc())
		comm, err := core.NewCommunity(core.CommunitySpec{Name: name, SchemaSrc: c.SchemaSrc})
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := comm.Marshal()
		objects = append(objects, obj)
		for _, o := range c.Objects {
			objects = append(objects, o.Doc)
		}
	}
	sheets := shipped(t)
	for _, name := range slices.Sorted(maps.Keys(sheets)) {
		s := sheets[name]
		docs := objects
		if name == "create" || name == "search" {
			docs = schemas
		}
		var steps, selected, written int
		for _, d := range docs {
			st, se, wr, err := xslt.Usage(s, d)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			steps, selected, written = max(steps, st), max(selected, se), max(written, wr)
		}
		t.Logf("%-16s max %6d steps (%5.0fx)  %5d selected (%6.0fx)  %6d bytes (%6.0fx)", name,
			steps, float64(xslt.MaxSteps)/float64(steps),
			selected, float64(xslt.MaxSelected)/float64(selected),
			written, float64(xslt.MaxOutput)/float64(written))
		if 100*steps > xslt.MaxSteps || 100*selected > xslt.MaxSelected || 100*written > xslt.MaxOutput {
			t.Errorf("%s: less than 100x headroom under the Apply budget", name)
		}
	}
}

// FuzzXSLTApply applies a fuzzed stylesheet to a fuzzed document: it
// must not panic, and a transform that succeeds stayed inside its
// budget. Every shipped stylesheet applied to the document must not
// run out of budget.
func FuzzXSLTApply(f *testing.F) {
	create, search, view := stylegen.DefaultSources()
	docs := []string{
		corpus.DesignPatterns(1, 1).Objects[0].Doc.String(),
		corpus.PatternSchemaSrc,
		`<r><a k="1">x<b/>y</a><a k="2"/><!--c--></r>`,
	}
	for _, sheet := range []string{create, search, view, doubling,
		head + `<xsl:template match="/"><o><xsl:for-each select="//*[@k]"><xsl:sort select="@k" order="descending"/><xsl:copy><xsl:attribute name="n"><xsl:value-of select="position()"/></xsl:attribute><xsl:copy-of select="@*|node()"/></xsl:copy></xsl:for-each></o></xsl:template></xsl:stylesheet>`,
		head + `<xsl:template match="*"><xsl:variable name="v"><xsl:apply-templates/></xsl:variable><e n="{local-name()}" v="{$v}"><xsl:apply-templates select="node()|@*"/></e></xsl:template></xsl:stylesheet>`,
	} {
		for _, d := range docs {
			f.Add(sheet, d)
		}
	}
	ships := shipped(f)
	f.Fuzz(func(t *testing.T, sheet, doc string) {
		d, err := xmldoc.ParseString(doc)
		if err != nil {
			return
		}
		for name, s := range ships {
			if _, err := s.Apply(d); errors.Is(err, xslt.ErrBudget) {
				t.Fatalf("shipped stylesheet %s ran out of budget on %q", name, doc)
			}
		}
		s, err := xslt.CompileString(sheet)
		if err != nil {
			return
		}
		steps, selected, written, err := xslt.Usage(s, d)
		if steps > xslt.MaxSteps+1 {
			t.Fatalf("ran %d steps past a budget of %d", steps, xslt.MaxSteps)
		}
		if err == nil && (selected > xslt.MaxSelected || written > xslt.MaxOutput) {
			t.Fatalf("succeeded over budget: %d selected, %d bytes", selected, written)
		}
	})
}
