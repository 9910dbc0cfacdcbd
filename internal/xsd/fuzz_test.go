package xsd

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/xmldoc"
)

// FuzzXSDParse: a community's schema comes from whoever published the
// community, and a join parses it. ParseString must return a schema or
// an error, never panic, and a schema it returns must flatten into
// fields and validate a document without panicking either: the
// generated forms, the indexing transform and every publish go through
// those. Seeded with the shipped corpus schemas and the paper's Fig. 3;
// testdata/fuzz holds recursive, chained, cyclic and malformed
// declarations.
func FuzzXSDParse(f *testing.F) {
	for _, name := range corpus.Names() {
		c, err := corpus.ByName(name, 1, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c.SchemaSrc)
	}
	f.Add(fig3Schema)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseString(src)
		if err != nil {
			return
		}
		if s.Root == nil {
			t.Fatalf("%q parsed with no root element", src)
		}
		s.Fields()
		s.SearchableFields()
		_ = s.Validate(s.Doc())
		if doc, err := xmldoc.ParseString("<" + s.Root.Name + "/>"); err == nil {
			_ = s.Validate(doc)
		}
	})
}
