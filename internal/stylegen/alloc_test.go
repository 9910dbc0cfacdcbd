package stylegen

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/xsd"
)

// TestViewAndExtractAllocs pins what rendering and indexing one design
// pattern allocate, cycling through a corpus of them, ~15 % above the
// 39 and 12 measured: a result tree carved from chunks and a variable
// stack instead of per-node copies (ViewHTML took ~700 allocations
// before), and a path walk instead of the generated XSLT transform
// (Extract took ~280).
func TestViewAndExtractAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := corpus.DesignPatterns(40, 1)
	schema, err := xsd.ParseString(c.SchemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndexer(schema, "")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	view := testing.AllocsPerRun(200, func() {
		if _, err := ViewHTML(c.Objects[i%len(c.Objects)].Doc); err != nil {
			t.Fatal(err)
		}
		i++
	})
	extract := testing.AllocsPerRun(200, func() {
		if _, err := ix.Extract(c.Objects[i%len(c.Objects)].Doc); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("ViewHTML %v, Extract %v allocations per object", view, extract)
	if view > 45 {
		t.Errorf("ViewHTML allocates %v times, want at most 45", view)
	}
	if extract > 14 {
		t.Errorf("Extract allocates %v times, want at most 14", extract)
	}
}
