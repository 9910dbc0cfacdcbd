package stylegen

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/xsd"
)

// BenchmarkF1ObjectPipeline measures the Fig. 1 loop: build a
// schema-valid object from form values, validate, extract indexed
// attributes, render the view.
func BenchmarkF1ObjectPipeline(b *testing.B) {
	schema, err := xsd.ParseString(corpus.PatternSchemaSrc)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIndexer(schema, "")
	if err != nil {
		b.Fatal(err)
	}
	values := map[string][]string{
		"name":           {"Observer"},
		"classification": {"behavioral"},
		"intent":         {"Define a one-to-many dependency between objects"},
		"keywords":       {"notification"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := BuildObject(schema, values)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ix.Extract(obj); err != nil {
			b.Fatal(err)
		}
		if _, err := ViewHTML(obj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2FormGeneration measures Fig. 2's generative step: schema
// through the default create stylesheet to an HTML form.
func BenchmarkF2FormGeneration(b *testing.B) {
	schema, err := xsd.ParseString(corpus.PatternSchemaSrc)
	if err != nil {
		b.Fatal(err)
	}
	sheet := DefaultCreate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sheet.Apply(schema.Doc()); err != nil {
			b.Fatal(err)
		}
	}
}
