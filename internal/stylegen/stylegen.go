// Package stylegen holds the default stylesheets and generated
// transforms that make U-P2P generative (paper Fig. 1/Fig. 2): the
// create and search stylesheets transform a community's XML Schema
// into HTML forms, the view stylesheet renders any shared object, and
// the indexing stylesheet — generated per schema — filters an object's
// searchable fields into the attribute set submitted to the metadata
// index ("U-P2P provides default stylesheets that operate on any
// community schema", §IV.A).
package stylegen

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/xsd"
	"repro/internal/xslt"
)

// createStylesheetSrc transforms a *schema document* into an HTML
// create form: one labelled input per leaf element, a <select> when
// the element's type is an enumerated restriction, fieldsets for
// nested complex types. Field names are slash-joined paths matching
// xsd.Fields, carried down via a template parameter.
const createStylesheetSrc = `
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <form class="up2p-create" method="post" action="create">
      <xsl:apply-templates select="schema/element/complexType/sequence/element | schema/element/complexType/choice/element | schema/element/complexType/all/element">
        <xsl:with-param name="prefix" select="''"/>
      </xsl:apply-templates>
      <input type="submit" value="Create"/>
    </form>
  </xsl:template>

  <xsl:template match="element">
    <xsl:param name="prefix" select="''"/>
    <xsl:choose>
      <xsl:when test="complexType">
        <fieldset>
          <legend><xsl:value-of select="@name"/></legend>
          <xsl:apply-templates select="complexType/sequence/element | complexType/choice/element | complexType/all/element">
            <xsl:with-param name="prefix" select="concat($prefix, @name, '/')"/>
          </xsl:apply-templates>
        </fieldset>
      </xsl:when>
      <xsl:otherwise>
        <xsl:call-template name="field">
          <xsl:with-param name="prefix" select="$prefix"/>
        </xsl:call-template>
      </xsl:otherwise>
    </xsl:choose>
  </xsl:template>

  <xsl:template name="field">
    <xsl:param name="prefix" select="''"/>
    <xsl:variable name="t" select="substring-after(@type, ':')"/>
    <xsl:variable name="tn" select="@type"/>
    <div class="up2p-field">
      <label for="{concat($prefix, @name)}"><xsl:value-of select="@name"/></label>
      <xsl:choose>
        <xsl:when test="//simpleType[@name = $tn]/restriction/enumeration">
          <select name="{concat($prefix, @name)}" id="{concat($prefix, @name)}">
            <xsl:for-each select="//simpleType[@name = $tn]/restriction/enumeration">
              <option value="{@value}"><xsl:value-of select="@value"/></option>
            </xsl:for-each>
          </select>
        </xsl:when>
        <xsl:otherwise>
          <input type="text" name="{concat($prefix, @name)}" id="{concat($prefix, @name)}" data-type="{$t}"/>
        </xsl:otherwise>
      </xsl:choose>
    </div>
  </xsl:template>
</xsl:stylesheet>`

// searchStylesheetSrc is the create form's sibling: same walk over the
// schema, but every field is optional and the form posts to search.
const searchStylesheetSrc = `
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <form class="up2p-search" method="get" action="search">
      <xsl:apply-templates select="schema/element/complexType/sequence/element | schema/element/complexType/choice/element | schema/element/complexType/all/element">
        <xsl:with-param name="prefix" select="''"/>
      </xsl:apply-templates>
      <input type="submit" value="Search"/>
    </form>
  </xsl:template>

  <xsl:template match="element">
    <xsl:param name="prefix" select="''"/>
    <xsl:choose>
      <xsl:when test="complexType">
        <fieldset>
          <legend><xsl:value-of select="@name"/></legend>
          <xsl:apply-templates select="complexType/sequence/element | complexType/choice/element | complexType/all/element">
            <xsl:with-param name="prefix" select="concat($prefix, @name, '/')"/>
          </xsl:apply-templates>
        </fieldset>
      </xsl:when>
      <xsl:otherwise>
        <div class="up2p-field">
          <label for="{concat($prefix, @name)}"><xsl:value-of select="@name"/></label>
          <input type="text" name="{concat($prefix, @name)}" id="{concat($prefix, @name)}" placeholder="any"/>
        </div>
      </xsl:otherwise>
    </xsl:choose>
  </xsl:template>
</xsl:stylesheet>`

// viewStylesheetSrc renders any shared object generically: nested
// elements become sections, leaves become label/value rows. Community
// designers override this with a custom display stylesheet (§V did,
// for design patterns).
const viewStylesheetSrc = `
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <div class="up2p-view"><xsl:apply-templates/></div>
  </xsl:template>
  <xsl:template match="*">
    <xsl:choose>
      <xsl:when test="*">
        <div class="up2p-section">
          <h3><xsl:value-of select="local-name()"/></h3>
          <xsl:apply-templates/>
        </div>
      </xsl:when>
      <xsl:otherwise>
        <div class="up2p-row">
          <span class="up2p-label"><xsl:value-of select="local-name()"/></span>
          <span class="up2p-value"><xsl:value-of select="."/></span>
        </div>
      </xsl:otherwise>
    </xsl:choose>
  </xsl:template>
  <xsl:template match="text()"/>
</xsl:stylesheet>`

// The built-in stylesheets, compiled on first use and shared by every
// community that does not bring its own (a compiled stylesheet is
// immutable, see xslt.Stylesheet). The sources are constants, so a
// compile failure is a bug and panics.
var (
	defaultCreate = sync.OnceValue(func() *xslt.Stylesheet { return xslt.MustCompileString(createStylesheetSrc) })
	defaultSearch = sync.OnceValue(func() *xslt.Stylesheet { return xslt.MustCompileString(searchStylesheetSrc) })
	defaultView   = sync.OnceValue(func() *xslt.Stylesheet { return xslt.MustCompileString(viewStylesheetSrc) })
)

// DefaultCreate returns the built-in create stylesheet: applied to a
// schema document it yields the HTML create form.
func DefaultCreate() *xslt.Stylesheet { return defaultCreate() }

// DefaultSearch returns the built-in search stylesheet: applied to a
// schema document it yields the HTML search form.
func DefaultSearch() *xslt.Stylesheet { return defaultSearch() }

// DefaultView returns the built-in view stylesheet, which renders any
// shared object.
func DefaultView() *xslt.Stylesheet { return defaultView() }

// DefaultSources returns the raw XSLT texts, for publishing alongside
// a community object (communities share their stylesheets).
func DefaultSources() (create, search, view string) {
	return createStylesheetSrc, searchStylesheetSrc, viewStylesheetSrc
}

// ViewHTML renders an object with the default view stylesheet.
func ViewHTML(obj *xmldoc.Node) (string, error) {
	return defaultView().Apply(obj)
}

// GenerateIndexingStylesheet builds, from a schema, the "Indexed
// Attribute XSL" of Fig. 1: an XSLT document that filters an object of
// that community down to its searchable attributes. The community
// designer can replace it (§V: "The community designer can also
// control this by implementing a stylesheet to filter indexable
// attributes"). An Indexer does not run this text: it walks the same
// paths directly (see NewIndexer).
func GenerateIndexingStylesheet(s *xsd.Schema) (string, error) {
	if s == nil || s.Root == nil {
		return "", fmt.Errorf("stylegen: schema has no root element")
	}
	fields := s.SearchableFields()
	var b strings.Builder
	b.WriteString(`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">` + "\n")
	b.WriteString("  <xsl:template match=\"/\">\n    <attributes>\n")
	for _, f := range fields {
		sel := "/" + s.Root.Name + "/" + f.Path
		fmt.Fprintf(&b, "      <xsl:for-each select=%q>\n", sel)
		fmt.Fprintf(&b, "        <attribute name=%q><xsl:value-of select=\"normalize-space(.)\"/></attribute>\n", f.Path)
		b.WriteString("      </xsl:for-each>\n")
	}
	b.WriteString("    </attributes>\n  </xsl:template>\n</xsl:stylesheet>")
	return b.String(), nil
}

// Indexer extracts indexed attributes from objects of one community.
// A community that ships its own index.xsl extracts through that
// stylesheet; any other extracts with the transform generated from its
// schema, which an Indexer runs as what it is: one path walk per
// searchable field. An Indexer is immutable and safe for concurrent
// use.
type Indexer struct {
	src    string
	sheet  *xslt.Stylesheet // the custom transform; nil for a generated one
	fields []fieldPath      // the generated transform's walks
}

// fieldPath is one for-each of a generated indexing stylesheet: the
// element names of /<Root>/<path>, and the attribute the values found
// there are indexed under.
type fieldPath struct {
	name  string
	steps []string
}

// NewIndexer builds a community's extractor: from its custom indexing
// stylesheet when the designer supplied one (the §V case study does),
// else from the schema's searchable fields. The generated stylesheet's
// text is still produced, for Source, but never compiled.
func NewIndexer(s *xsd.Schema, custom string) (*Indexer, error) {
	if custom != "" {
		sheet, err := xslt.CompileString(custom)
		if err != nil {
			return nil, fmt.Errorf("stylegen: compile indexing stylesheet: %w", err)
		}
		return &Indexer{src: custom, sheet: sheet}, nil
	}
	src, err := GenerateIndexingStylesheet(s)
	if err != nil {
		return nil, err
	}
	fields := s.SearchableFields()
	ix := &Indexer{src: src, fields: make([]fieldPath, len(fields))}
	for i, f := range fields {
		// The generated select is /<Root>/<path>: a walk only when each
		// step is a plain name test, which is all a schema should give.
		steps := strings.Split(s.Root.Name+"/"+f.Path, "/")
		for _, st := range steps {
			if !xpath.IsName(st) {
				return nil, fmt.Errorf("stylegen: searchable field %q: %q is not an element name", f.Path, st)
			}
		}
		ix.fields[i] = fieldPath{name: f.Path, steps: steps}
	}
	return ix, nil
}

// Source returns the stylesheet text.
func (ix *Indexer) Source() string { return ix.src }

// Extract returns an object's attribute set for the metadata index.
// Empty values are dropped. A generated transform normalizes values as
// XPath's normalize-space does and lists each field's values in
// document order, fields in schema order; a custom one's values are
// trimmed of XML whitespace.
func (ix *Indexer) Extract(obj *xmldoc.Node) (query.Attrs, error) {
	if obj == nil {
		return nil, fmt.Errorf("stylegen: indexing transform: nil object")
	}
	if ix.sheet != nil {
		return ix.extractSheet(obj)
	}
	attrs := query.Attrs{}
	for _, f := range ix.fields {
		if obj.HasName(f.steps[0]) {
			f.walk(obj, f.steps[1:], attrs)
		}
	}
	return attrs, nil
}

// walk adds the values of the elements below n that the remaining
// steps name: element children by name, unprefixed steps matching
// local names, as an XPath name test does.
func (f fieldPath) walk(n *xmldoc.Node, steps []string, attrs query.Attrs) {
	if len(steps) == 0 {
		if v := xpath.NormalizeSpace(n.Text()); v != "" {
			attrs.Add(f.name, v)
		}
		return
	}
	for _, c := range n.Children {
		if c.Kind == xmldoc.KindElement && c.HasName(steps[0]) {
			f.walk(c, steps[1:], attrs)
		}
	}
}

// extractSheet runs a custom indexing transform and collects the
// <attribute name="...">value</attribute> elements it writes.
func (ix *Indexer) extractSheet(obj *xmldoc.Node) (query.Attrs, error) {
	nodes, err := ix.sheet.ApplyNodes(obj)
	if err != nil {
		return nil, fmt.Errorf("stylegen: indexing transform: %w", err)
	}
	attrs := query.Attrs{}
	for _, n := range nodes {
		if n.Kind != xmldoc.KindElement {
			continue
		}
		n.Walk(func(m *xmldoc.Node) bool {
			if m.Kind == xmldoc.KindElement && m.LocalName() == "attribute" {
				name, _ := m.Attr("name")
				val := strings.Trim(m.Text(), xmlSpace)
				if name != "" && val != "" {
					attrs.Add(name, val)
				}
				return false
			}
			return true
		})
	}
	return attrs, nil
}

// xmlSpace is XML's whitespace, the set normalize-space strips.
const xmlSpace = " \t\r\n"
