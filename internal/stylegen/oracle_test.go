package stylegen_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/schemagen"
	"repro/internal/stylegen"
	"repro/internal/xmldoc"
	"repro/internal/xsd"
)

// An Indexer without a custom transform walks the generated indexing
// stylesheet's paths instead of running it. The oracle is the sheet
// itself: handed to NewIndexer as a custom source, it compiles and runs
// through XSLT, as it did before the walk existed.

// oracle returns the walking Indexer for s and the one running the
// generated stylesheet.
func oracle(tb testing.TB, s *xsd.Schema) (walk, sheet *stylegen.Indexer) {
	tb.Helper()
	walk, err := stylegen.NewIndexer(s, "")
	if err != nil {
		tb.Fatal(err)
	}
	src, err := stylegen.GenerateIndexingStylesheet(s)
	if err != nil {
		tb.Fatal(err)
	}
	if sheet, err = stylegen.NewIndexer(s, src); err != nil {
		tb.Fatal(err)
	}
	if walk.Source() != sheet.Source() {
		tb.Fatal("the walking Indexer's Source is not the generated stylesheet")
	}
	return walk, sheet
}

// sameExtract fails tb when the walk and the sheet disagree on obj.
func sameExtract(tb testing.TB, walk, sheet *stylegen.Indexer, obj *xmldoc.Node) {
	tb.Helper()
	got, err := walk.Extract(obj)
	if err != nil {
		tb.Fatalf("walk: %v", err)
	}
	want, err := sheet.Extract(obj)
	if err != nil {
		tb.Fatalf("sheet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("walk and generated sheet differ on %s:\nwalk  %q\nsheet %q", obj, got, want)
	}
}

type oracleCase struct {
	name    string
	schema  *xsd.Schema
	objects []*xmldoc.Node
}

func mustSchema(tb testing.TB, src string) *xsd.Schema {
	tb.Helper()
	s, err := xsd.ParseString(src)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// oracleCases lists every corpus schema with its objects, the root
// community's schema with the corpora's community objects, and every
// schema an example program declares with objects built from its
// fields.
func oracleCases(tb testing.TB) []oracleCase {
	var cases []oracleCase
	var communities []*xmldoc.Node
	for _, name := range corpus.Names() {
		c, err := corpus.ByName(name, 60, 1)
		if err != nil {
			tb.Fatal(err)
		}
		oc := oracleCase{name: name, schema: mustSchema(tb, c.SchemaSrc)}
		for _, o := range c.Objects {
			oc.objects = append(oc.objects, o.Doc)
		}
		cases = append(cases, oc)
		comm, err := core.NewCommunity(core.CommunitySpec{Name: name, Keywords: "corpus " + name, SchemaSrc: c.SchemaSrc})
		if err != nil {
			tb.Fatal(err)
		}
		obj, _ := comm.Marshal()
		communities = append(communities, obj)
	}
	cases = append(cases, oracleCase{name: "root community", schema: core.RootCommunity().Schema, objects: communities})
	for _, ex := range exampleSchemas(tb) {
		cases = append(cases, oracleCase{name: ex.name, schema: ex.schema, objects: fieldObjects(ex.schema)})
	}
	return cases
}

type namedSchema struct {
	name   string
	schema *xsd.Schema
}

// exampleSchemas reads the string constants of the example programs
// and keeps each one that is an XML Schema, or a schemagen field spec.
func exampleSchemas(tb testing.TB) []namedSchema {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no example programs found: %v", err)
	}
	var out []namedSchema
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, v := range spec.Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				text, err := strconv.Unquote(lit.Value)
				if err != nil {
					continue
				}
				if !strings.Contains(text, "<schema") {
					if text, err = schemagen.GenerateFromText(text); err != nil {
						continue
					}
				}
				if s, err := xsd.ParseString(text); err == nil {
					out = append(out, namedSchema{name: file + ":" + spec.Names[i].Name, schema: s})
				}
			}
			return true
		})
	}
	if len(out) < 2 {
		tb.Fatalf("found %d example schemas, want the quickstart's and the schema builder's", len(out))
	}
	return out
}

// fieldObjects builds objects with every field of s filled, repeated
// fields twice, values carrying whitespace runs, and one object with
// every field empty.
func fieldObjects(s *xsd.Schema) []*xmldoc.Node {
	values := []string{"plain", "  two\twords \n", "a  b\r\nc", ""}
	var out []*xmldoc.Node
	for _, v := range values {
		root := xmldoc.NewElement(s.Root.Name)
		for _, f := range s.Fields() {
			n := 1
			if f.Repeated {
				n = 2
			}
			for i := 0; i < n; i++ {
				parent := root
				steps := strings.Split(f.Path, "/")
				for _, st := range steps[:len(steps)-1] {
					c := parent.Child(st)
					if c == nil {
						c = xmldoc.NewElement(st)
						parent.AppendChild(c)
					}
					parent = c
				}
				leaf := xmldoc.NewElement(steps[len(steps)-1])
				if v != "" {
					leaf.AppendChild(xmldoc.NewText(v + strconv.Itoa(i)))
				}
				parent.AppendChild(leaf)
			}
		}
		out = append(out, root)
	}
	return out
}

func TestIndexerWalkMatchesGeneratedSheet(t *testing.T) {
	for _, c := range oracleCases(t) {
		walk, sheet := oracle(t, c.schema)
		for _, obj := range c.objects {
			sameExtract(t, walk, sheet, obj)
		}
		t.Logf("%s: %d objects", c.name, len(c.objects))
	}
}

// FuzzIndexerExtract holds the walk to the generated sheet over
// mutated objects: whitespace runs, repeated and nested fields,
// prefixed names, empty elements, elements the schema does not know.
func FuzzIndexerExtract(f *testing.F) {
	var schemas []*xsd.Schema
	for _, c := range oracleCases(f) {
		schemas = append(schemas, c.schema)
		for i, obj := range c.objects {
			if i < 2 {
				f.Add(uint8(len(schemas)-1), obj.String())
			}
		}
	}
	schemas = append(schemas, mustSchema(f, nestedSchema))
	nested := uint8(len(schemas) - 1)
	for _, doc := range []string{
		`<pattern><title>  Observer  </title><solution><participants>a</participants><participants> b  c </participants></solution><solution><participants>d</participants></solution></pattern>`,
		`<pattern><title/><category></category><intent> </intent><solution><structure>x</structure><participants/></solution></pattern>`,
		`<pattern><title>t<b>bold</b> tail</title><solution><participants><p>nested</p>text</participants></solution></pattern>`,
		`<dp:pattern xmlns:dp="http://up2p.carleton.ca/ns/designpatterns"><dp:title>prefixed</dp:title><dp:solution><dp:participants>p</dp:participants></dp:solution></dp:pattern>`,
		`<x:pattern xmlns:x="urn:other"><x:title>unknown ns</x:title></x:pattern>`,
		"<pattern><title>\t\r\n</title><intent>a\u00a0b</intent><title>second</title></pattern>",
		`<other><title>wrong root</title></other>`,
	} {
		f.Add(nested, doc)
	}
	f.Fuzz(func(t *testing.T, which uint8, doc string) {
		obj, err := xmldoc.ParseString(doc)
		if err != nil {
			return
		}
		walk, sheet := oracle(t, schemas[int(which)%len(schemas)])
		sameExtract(t, walk, sheet, obj)
	})
}

// nestedSchema has searchable fields one and two levels down.
const nestedSchema = `
<schema xmlns="http://www.w3.org/2001/XMLSchema" xmlns:up2p="http://up2p.carleton.ca/ns/community">
 <element name="pattern">
  <complexType>
   <sequence>
    <element name="title" type="xsd:string" maxOccurs="unbounded" up2p:searchable="true"/>
    <element name="category" type="xsd:string" up2p:searchable="true"/>
    <element name="intent" type="xsd:string" up2p:searchable="true"/>
    <element name="solution" maxOccurs="unbounded">
     <complexType>
      <sequence>
       <element name="structure" type="xsd:string"/>
       <element name="participants" type="xsd:string" maxOccurs="unbounded" up2p:searchable="true"/>
      </sequence>
     </complexType>
    </element>
   </sequence>
  </complexType>
 </element>
</schema>`
