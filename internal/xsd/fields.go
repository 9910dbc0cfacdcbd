package xsd

import "strings"

// Field is a flattened leaf element of the schema: the unit of the
// generated create/search forms and of metadata indexing. Paths are
// relative to the document element, e.g. "solution/participants".
type Field struct {
	// Path is the slash-joined element path below the root.
	Path string
	// Name is the leaf element name.
	Name string
	// TypeName is the resolved type's display name ("string",
	// "anyURI", or the named simple type).
	TypeName string
	// Builtin is the primitive the value reduces to.
	Builtin Builtin
	// Enum lists permitted values when the type is an enumerated
	// restriction (rendered as a <select> in generated forms).
	Enum []string
	// Searchable marks the field for the metadata index (§IV.C.2).
	Searchable bool
	// Attachment marks an attachment-URI field (§IV.C.1).
	Attachment bool
	// Repeated reports maxOccurs > 1 (or unbounded).
	Repeated bool
	// Optional reports minOccurs == 0.
	Optional bool
}

// Fields returns the schema's leaf fields in document order, the
// flattening that drives form generation and the indexing transform.
// Nested complex types contribute dotted paths; recursion through a
// named complex type is cut off at first repetition.
func (s *Schema) Fields() []Field {
	var out []Field
	if s.Root == nil {
		return out
	}
	s.collectFields(s.Root, nil, map[*Type]bool{}, &out)
	return out
}

// SearchableFields returns only the fields marked searchable. When the
// schema marks none, every leaf field is considered searchable: the
// paper's default community schema predates the marker, so an unmarked
// schema searches on everything (matching the prototype's behaviour).
func (s *Schema) SearchableFields() []Field {
	all := s.Fields()
	var marked []Field
	for _, f := range all {
		if f.Searchable {
			marked = append(marked, f)
		}
	}
	if len(marked) == 0 {
		return all
	}
	return marked
}

func (s *Schema) collectFields(el *ElementDecl, prefix []string, seen map[*Type]bool, out *[]Field) {
	t := el.Type
	if t == nil {
		return
	}
	if t.Kind == TypeComplex {
		if t.Name != "" {
			if seen[t] {
				return
			}
			seen[t] = true
			defer delete(seen, t)
		}
		for _, c := range t.Children {
			var p []string
			if len(prefix) > 0 || el != s.Root {
				p = append(append(p, prefix...), el.Name)
			}
			// The root element's name is not part of field paths.
			if el == s.Root {
				p = prefix
			}
			s.collectFields(c, p, seen, out)
		}
		return
	}
	path := strings.Join(append(append([]string{}, prefix...), el.Name), "/")
	f := Field{
		Path:       path,
		Name:       el.Name,
		Builtin:    t.Builtin,
		Searchable: el.Searchable,
		Attachment: el.Attachment || t.Builtin == BuiltinAnyURI && el.Attachment,
		Repeated:   el.MaxOccurs == Unbounded || el.MaxOccurs > 1,
		Optional:   el.MinOccurs == 0,
	}
	switch {
	case t.Name != "":
		f.TypeName = t.Name
	case t.Kind == TypeBuiltin:
		f.TypeName = t.Builtin.String()
	default:
		f.TypeName = t.Builtin.String()
	}
	if t.Kind == TypeSimple {
		f.Enum = t.Enum
	}
	*out = append(*out, f)
}
