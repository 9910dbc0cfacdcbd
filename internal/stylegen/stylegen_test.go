package stylegen

import (
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/xmldoc"
	"repro/internal/xsd"
)

const patternSchema = `
<schema xmlns="http://www.w3.org/2001/XMLSchema" xmlns:up2p="http://up2p.carleton.ca/ns/community">
 <element name="pattern">
  <complexType>
   <sequence>
    <element name="title" type="xsd:string" up2p:searchable="true"/>
    <element name="category" type="categoryType" up2p:searchable="true"/>
    <element name="intent" type="xsd:string" up2p:searchable="true"/>
    <element name="solution">
     <complexType>
      <sequence>
       <element name="structure" type="xsd:string"/>
       <element name="participants" type="xsd:string" minOccurs="0" maxOccurs="unbounded" up2p:searchable="true"/>
      </sequence>
     </complexType>
    </element>
    <element name="year" type="xsd:integer" minOccurs="0"/>
   </sequence>
  </complexType>
 </element>
 <simpleType name="categoryType">
  <restriction base="string">
   <enumeration value="creational"/>
   <enumeration value="structural"/>
   <enumeration value="behavioral"/>
  </restriction>
 </simpleType>
</schema>`

func schema(t *testing.T) *xsd.Schema {
	t.Helper()
	s, err := xsd.ParseString(patternSchema)
	if err != nil {
		t.Fatalf("parse schema: %v", err)
	}
	return s
}

func TestCreateFormGeneration(t *testing.T) {
	s := schema(t)
	html, err := DefaultCreate().Apply(s.Doc())
	if err != nil {
		t.Fatalf("create form: %v", err)
	}
	for _, want := range []string{
		`class="up2p-create"`,
		`name="title"`,
		`name="intent"`,
		`name="solution/structure"`,    // nested path via prefix param
		`name="solution/participants"`, // repeated nested field
		`<select name="category"`,      // enumerated type renders a select
		`<option value="behavioral">`,
		`<legend>solution</legend>`,
		`name="year"`,
		`type="submit"`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("create form missing %q in:\n%s", want, html)
		}
	}
}

func TestSearchFormGeneration(t *testing.T) {
	s := schema(t)
	html, err := DefaultSearch().Apply(s.Doc())
	if err != nil {
		t.Fatalf("search form: %v", err)
	}
	for _, want := range []string{
		`class="up2p-search"`,
		`action="search"`,
		`name="title"`,
		`name="solution/participants"`,
		`value="Search"`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("search form missing %q", want)
		}
	}
}

func TestViewRendering(t *testing.T) {
	obj := mustParseXML(`<pattern><title>Observer</title><solution><structure>diagram</structure></solution></pattern>`)
	html, err := ViewHTML(obj)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	for _, want := range []string{
		`class="up2p-view"`,
		`<h3>pattern</h3>`,
		`<h3>solution</h3>`,
		`>title</span>`,
		`>Observer</span>`,
		`>structure</span>`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("view missing %q in:\n%s", want, html)
		}
	}
}

func TestGenerateIndexingStylesheet(t *testing.T) {
	s := schema(t)
	src, err := GenerateIndexingStylesheet(s)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	// Only searchable fields appear.
	for _, want := range []string{`"/pattern/title"`, `"/pattern/category"`, `"/pattern/intent"`, `"/pattern/solution/participants"`} {
		if !strings.Contains(src, want) {
			t.Errorf("indexing stylesheet missing %q:\n%s", want, src)
		}
	}
	for _, reject := range []string{`"/pattern/year"`, `"/pattern/solution/structure"`} {
		if strings.Contains(src, reject) {
			t.Errorf("indexing stylesheet includes unsearchable %q", reject)
		}
	}
}

func TestIndexerExtract(t *testing.T) {
	s := schema(t)
	ix, err := NewIndexer(s, "")
	if err != nil {
		t.Fatalf("indexer: %v", err)
	}
	obj := mustParseXML(`<pattern>
	  <title>Observer</title>
	  <category>behavioral</category>
	  <intent>Define a one-to-many dependency</intent>
	  <solution>
	    <structure>long diagram text that should not be indexed</structure>
	    <participants>Subject</participants>
	    <participants>Observer</participants>
	  </solution>
	  <year>1994</year>
	</pattern>`)
	attrs, err := ix.Extract(obj)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if got := attrs.Get("title"); got != "Observer" {
		t.Errorf("title = %q", got)
	}
	if got := len(attrs["solution/participants"]); got != 2 {
		t.Errorf("participants = %v", attrs["solution/participants"])
	}
	if _, present := attrs["solution/structure"]; present {
		t.Error("unsearchable structure was indexed")
	}
	if _, present := attrs["year"]; present {
		t.Error("unsearchable year was indexed")
	}
}

func TestIndexerSkipsEmptyValues(t *testing.T) {
	s := schema(t)
	ix, err := NewIndexer(s, "")
	if err != nil {
		t.Fatal(err)
	}
	obj := mustParseXML(`<pattern><title></title><category>structural</category><intent>i</intent><solution><structure>s</structure></solution></pattern>`)
	attrs, err := ix.Extract(obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, present := attrs["title"]; present {
		t.Error("empty title indexed")
	}
}

func TestIndexerFromCustomSource(t *testing.T) {
	// A custom indexing stylesheet (the §V case study scenario): index
	// only the title, lowercased via translate.
	src := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	  <xsl:template match="/">
	    <attributes>
	      <attribute name="title"><xsl:value-of select="translate(/pattern/title, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ', 'abcdefghijklmnopqrstuvwxyz')"/></attribute>
	    </attributes>
	  </xsl:template>
	</xsl:stylesheet>`
	ix, err := NewIndexer(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := ix.Extract(mustParseXML(`<pattern><title>OBSERVER</title></pattern>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := attrs.Get("title"); got != "observer" {
		t.Errorf("custom indexer title = %q", got)
	}
	if ix.Source() != src {
		t.Error("Source() mismatch")
	}
	if _, err := NewIndexer(nil, "<bogus/>"); err == nil {
		t.Error("bad source compiled")
	}
}

func TestBuildObject(t *testing.T) {
	s := schema(t)
	obj, err := BuildObject(s, map[string][]string{
		"title":                 {"Observer"},
		"category":              {"behavioral"},
		"intent":                {"Define a one-to-many dependency"},
		"solution/structure":    {"UML"},
		"solution/participants": {"Subject", "ConcreteObserver"},
		"year":                  {"1994"},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got := obj.ChildText("title"); got != "Observer" {
		t.Errorf("title = %q", got)
	}
	if got := len(obj.Child("solution").ChildrenNamed("participants")); got != 2 {
		t.Errorf("participants = %d", got)
	}
	if err := s.Validate(obj); err != nil {
		t.Errorf("built object invalid: %v", err)
	}
}

func TestBuildObjectOptionalOmitted(t *testing.T) {
	s := schema(t)
	obj, err := BuildObject(s, map[string][]string{
		"title":              {"Visitor"},
		"category":           {"behavioral"},
		"intent":             {"Represent an operation"},
		"solution/structure": {"UML"},
		// year and participants omitted (both optional)
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if obj.Child("year") != nil {
		t.Error("optional year emitted")
	}
}

func TestBuildObjectInvalidValues(t *testing.T) {
	s := schema(t)
	_, err := BuildObject(s, map[string][]string{
		"title":              {"X"},
		"category":           {"not-a-category"},
		"intent":             {"i"},
		"solution/structure": {"s"},
	})
	if err == nil {
		t.Error("invalid enum accepted")
	}
	// Missing required field.
	_, err = BuildObject(s, map[string][]string{
		"category":           {"structural"},
		"intent":             {"i"},
		"solution/structure": {"s"},
	})
	if err != nil {
		// title missing produces empty element which is valid for
		// xsd:string; so this should actually succeed.
		t.Logf("missing title: %v", err)
	}
}

func TestBuildObjectRespectsMaxOccurs(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
	 <element name="o"><complexType><sequence>
	   <element name="v" type="xsd:string" maxOccurs="2"/>
	 </sequence></complexType></element></schema>`
	s, err := xsd.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := BuildObject(s, map[string][]string{"v": {"a", "b", "c"}})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got := len(obj.ChildrenNamed("v")); got != 2 {
		t.Errorf("v count = %d, want clamped to 2", got)
	}
}

func TestBuildFilter(t *testing.T) {
	f := BuildFilter(map[string][]string{
		"title":    {"Observer"},
		"year":     {">=1990"},
		"intent":   {"~dependency"},
		"category": {""},
	})
	attrs := query.Attrs{
		"title":  {"Observer"},
		"year":   {"1994"},
		"intent": {"Define a one-to-many dependency"},
	}
	if !f.Match(attrs) {
		t.Errorf("filter %s did not match", f.String())
	}
	attrs["year"] = []string{"1985"}
	if f.Match(attrs) {
		t.Error("filter matched out-of-range year")
	}
	// Empty form matches everything.
	if _, ok := BuildFilter(nil).(query.MatchAll); !ok {
		t.Error("empty form filter is not MatchAll")
	}
	// Single field yields a bare assertion.
	single := BuildFilter(map[string][]string{"title": {"X"}})
	if _, ok := single.(*query.Assertion); !ok {
		t.Errorf("single filter = %T", single)
	}
	// Operators.
	ops := BuildFilter(map[string][]string{"a": {"<5"}, "b": {"<=5"}, "c": {">5"}, "d": {"w*d"}})
	if !ops.Match(query.Attrs{"a": {"3"}, "b": {"5"}, "c": {"9"}, "d": {"wild"}}) {
		t.Errorf("ops filter %s failed", ops.String())
	}
}

func TestFormRoundTrip(t *testing.T) {
	// The full Fig. 1 loop: schema -> create form -> submitted values
	// -> object -> validate -> index -> search filter finds it.
	s := schema(t)
	values := map[string][]string{
		"title":                 {"Composite"},
		"category":              {"structural"},
		"intent":                {"Compose objects into tree structures"},
		"solution/structure":    {"UML class diagram"},
		"solution/participants": {"Component", "Leaf", "Composite"},
	}
	obj, err := BuildObject(s, values)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ix, err := NewIndexer(s, "")
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := ix.Extract(obj)
	if err != nil {
		t.Fatal(err)
	}
	f := BuildFilter(map[string][]string{"title": {"Composite"}, "category": {"structural"}})
	if !f.Match(attrs) {
		t.Errorf("round-trip filter %s missed attrs %v", f.String(), attrs)
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
