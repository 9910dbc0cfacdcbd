package corpus

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/xsd"
)

// TestAllCorporaSchemaValid is the load-bearing test: every generated
// object validates against its community schema, at both small and
// larger-than-catalogue sizes (variant generation paths).
func TestAllCorporaSchemaValid(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []int{5, 60} {
			c, err := ByName(name, n, 42)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(c.Objects) != n {
				t.Fatalf("%s: generated %d, want %d", name, len(c.Objects), n)
			}
			s, err := xsd.ParseString(c.SchemaSrc)
			if err != nil {
				t.Fatalf("%s schema: %v", name, err)
			}
			for i, obj := range c.Objects {
				if err := s.Validate(obj.Doc); err != nil {
					t.Errorf("%s[%d] (%s) invalid: %v", name, i, obj.Filename, err)
				}
				if obj.Filename == "" {
					t.Errorf("%s[%d] missing filename", name, i)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		a, _ := ByName(name, 30, 7)
		b, _ := ByName(name, 30, 7)
		for i := range a.Objects {
			if a.Objects[i].Doc.String() != b.Objects[i].Doc.String() {
				t.Errorf("%s[%d] differs across runs with same seed", name, i)
			}
		}
		if name == "cml" {
			continue // molecules derive purely from the catalogue; seed-independent
		}
		c, _ := ByName(name, 30, 8)
		same := true
		for i := range a.Objects {
			if a.Objects[i].Doc.String() != c.Objects[i].Doc.String() {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s identical across different seeds", name)
		}
	}
}

func TestPatternsBaseCatalogue(t *testing.T) {
	c := DesignPatterns(GofCount, 1)
	names := map[string]bool{}
	for _, o := range c.Objects {
		names[o.Doc.ChildText("name")] = true
	}
	for _, want := range []string{"Observer", "Visitor", "Singleton", "Composite", "Abstract Factory"} {
		if !names[want] {
			t.Errorf("GoF catalogue missing %s", want)
		}
	}
	// Observer's intent contains the canonical phrase used by E2
	// metadata queries.
	var observerIntent string
	for _, o := range c.Objects {
		if o.Doc.ChildText("name") == "Observer" {
			observerIntent = o.Doc.ChildText("intent")
		}
	}
	if !strings.Contains(observerIntent, "one-to-many dependency") {
		t.Errorf("Observer intent = %q", observerIntent)
	}
}

func TestPatternVariantsSearchable(t *testing.T) {
	c := DesignPatterns(100, 3)
	// Variants keep the base classification enum values.
	s, err := xsd.ParseString(c.SchemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, f := range s.Fields() {
		if f.Path == "classification" {
			for _, e := range f.Enum {
				valid[e] = true
			}
		}
	}
	for i, o := range c.Objects {
		if !valid[o.Doc.ChildText("classification")] {
			t.Errorf("object %d classification %q not in enum", i, o.Doc.ChildText("classification"))
		}
	}
}

func TestSongFilenamesLoseMetadata(t *testing.T) {
	// The premise of E2: filenames carry artist+title but not genre,
	// album or year.
	c := Songs(50, 5)
	for _, o := range c.Objects {
		genre := o.Doc.ChildText("genre")
		if strings.Contains(strings.ToLower(o.Filename), genre) {
			t.Errorf("filename %q leaks genre %q", o.Filename, genre)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("bogus", 1, 1); err == nil {
		t.Error("unknown corpus accepted")
	}
}

func TestMoleculeHomologueMassMonotone(t *testing.T) {
	c := Molecules(30, 1)
	// Homologues of the same base grow in molar mass.
	baseMass := map[string]float64{}
	for i, o := range c.Objects {
		title := o.Doc.ChildText("title")
		mass := o.Doc.ChildText("molarMass")
		if i < len(moleculeCatalog) {
			baseMass[title] = parseMass(t, mass)
			continue
		}
		base := strings.SplitN(title, " homologue", 2)[0]
		if bm, ok := baseMass[base]; ok {
			if parseMass(t, mass) <= bm {
				t.Errorf("homologue %q mass %s not above base %v", title, mass, bm)
			}
		}
	}
}

func parseMass(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad mass %q", s)
	}
	return f
}
