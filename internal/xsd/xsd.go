// Package xsd implements the XML Schema subset that U-P2P community
// descriptions use: top-level element declarations, complex types with
// sequence/choice/all content models, simple types derived by
// restriction (enumeration, pattern, length and value facets), the
// built-in primitive types appearing in the paper's artifacts, and
// occurrence constraints.
//
// Beyond validation the package exposes the structural introspection
// (Fields) that powers the generative half of the paper: default
// create/search stylesheets and the indexing transform are driven by
// walking the schema, and fields are marked searchable with the
// up2p:searchable attribute exactly as §IV.C.2 requires ("Schema
// authors will be required to mark fields as searchable").
package xsd

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xmldoc"
)

// Unbounded is the MaxOccurs value for maxOccurs="unbounded".
const Unbounded = -1

// Schema is a parsed schema document.
type Schema struct {
	// TargetNamespace is the schema's targetNamespace attribute, if any.
	TargetNamespace string
	// Root is the first top-level element declaration; U-P2P object
	// schemas declare exactly one document element (e.g. "community").
	Root *ElementDecl
	// Elements holds all top-level element declarations by name.
	Elements map[string]*ElementDecl
	// Types holds named simple and complex types by name.
	Types map[string]*Type

	doc *xmldoc.Node
}

// ContentModel enumerates complex-type compositors.
type ContentModel int

// Content models.
const (
	ModelSequence ContentModel = iota + 1
	ModelChoice
	ModelAll
)

func (m ContentModel) String() string {
	switch m {
	case ModelSequence:
		return "sequence"
	case ModelChoice:
		return "choice"
	case ModelAll:
		return "all"
	default:
		return "none"
	}
}

// TypeKind discriminates Type variants.
type TypeKind int

// Type kinds.
const (
	TypeBuiltin TypeKind = iota + 1
	TypeSimple
	TypeComplex
)

// Type describes a simple or complex type.
type Type struct {
	Kind TypeKind
	Name string // empty for anonymous types

	// Builtin/simple facets.
	Builtin   Builtin // for TypeBuiltin, or the resolved base primitive for TypeSimple
	Base      string  // base type name for restrictions
	Enum      []string
	Pattern   string // XML Schema pattern facet (anchored regexp)
	MinLength int    // -1 when unset
	MaxLength int    // -1 when unset
	MinValue  *float64
	MaxValue  *float64

	// Complex content.
	Model    ContentModel
	Children []*ElementDecl
	Attrs    []*AttrDecl
	Mixed    bool
}

// ElementDecl is an element declaration (top-level or local particle).
type ElementDecl struct {
	Name      string
	TypeName  string // as written (e.g. "xsd:string", "protocolTypes"); empty for inline types
	Type      *Type  // resolved
	MinOccurs int
	MaxOccurs int // Unbounded for "unbounded"

	// Searchable marks the field for metadata indexing (up2p:searchable).
	Searchable bool
	// Attachment marks an anyURI element as a downloadable attachment
	// link (up2p:attachment), per §IV.C.1.
	Attachment bool
}

// AttrDecl is an attribute declaration on a complex type.
type AttrDecl struct {
	Name     string
	TypeName string
	Type     *Type
	Required bool
}

// ParseError reports a schema document that could not be interpreted.
type ParseError struct {
	Msg string
}

func (e *ParseError) Error() string { return "xsd: " + e.Msg }

// ErrNotASchema is returned when the document element is not <schema>.
var ErrNotASchema = errors.New("xsd: document element is not an XML Schema")

// Parse interprets an XML Schema document.
func Parse(doc *xmldoc.Node) (*Schema, error) {
	if doc == nil || doc.LocalName() != "schema" {
		return nil, ErrNotASchema
	}
	s := &Schema{
		TargetNamespace: doc.AttrDefault("targetNamespace", ""),
		Elements:        make(map[string]*ElementDecl),
		Types:           make(map[string]*Type),
		doc:             doc,
	}
	// First pass: collect named types so references resolve regardless
	// of declaration order.
	for _, c := range doc.Elements() {
		switch c.LocalName() {
		case "simpleType", "complexType":
			name, ok := c.Attr("name")
			if !ok || name == "" {
				return nil, &ParseError{Msg: "top-level type without name"}
			}
			if _, dup := s.Types[name]; dup {
				return nil, &ParseError{Msg: fmt.Sprintf("duplicate type %q", name)}
			}
			s.Types[name] = &Type{Name: name} // placeholder for cycles
		}
	}
	for _, c := range doc.Elements() {
		switch c.LocalName() {
		case "simpleType":
			t, err := s.parseSimpleType(c)
			if err != nil {
				return nil, err
			}
			*s.Types[c.AttrDefault("name", "")] = *t
			s.Types[c.AttrDefault("name", "")].Name = c.AttrDefault("name", "")
		case "complexType":
			t, err := s.parseComplexType(c)
			if err != nil {
				return nil, err
			}
			*s.Types[c.AttrDefault("name", "")] = *t
			s.Types[c.AttrDefault("name", "")].Name = c.AttrDefault("name", "")
		}
	}
	for _, c := range doc.Elements() {
		if c.LocalName() != "element" {
			continue
		}
		el, err := s.parseElement(c)
		if err != nil {
			return nil, err
		}
		if _, dup := s.Elements[el.Name]; dup {
			return nil, &ParseError{Msg: fmt.Sprintf("duplicate element %q", el.Name)}
		}
		s.Elements[el.Name] = el
		if s.Root == nil {
			s.Root = el
		}
	}
	if s.Root == nil {
		return nil, &ParseError{Msg: "schema declares no top-level element"}
	}
	// Resolve all deferred type references.
	if err := s.resolve(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseString parses a schema from its textual form.
func ParseString(src string) (*Schema, error) {
	doc, err := xmldoc.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	return Parse(doc)
}

// Doc returns the underlying schema document node (the input to the
// generative stylesheets of Fig. 2).
func (s *Schema) Doc() *xmldoc.Node { return s.doc }

// String serializes the schema's source document.
func (s *Schema) String() string { return s.doc.String() }

func (s *Schema) parseElement(n *xmldoc.Node) (*ElementDecl, error) {
	name, ok := n.Attr("name")
	if !ok || name == "" {
		return nil, &ParseError{Msg: "element without name"}
	}
	el := &ElementDecl{
		Name:      name,
		MinOccurs: 1,
		MaxOccurs: 1,
	}
	if v, ok := n.Attr("minOccurs"); ok {
		i, err := strconv.Atoi(v)
		if err != nil || i < 0 {
			return nil, &ParseError{Msg: fmt.Sprintf("element %q: bad minOccurs %q", name, v)}
		}
		el.MinOccurs = i
	}
	if v, ok := n.Attr("maxOccurs"); ok {
		if v == "unbounded" {
			el.MaxOccurs = Unbounded
		} else {
			i, err := strconv.Atoi(v)
			if err != nil || i < 0 {
				return nil, &ParseError{Msg: fmt.Sprintf("element %q: bad maxOccurs %q", name, v)}
			}
			el.MaxOccurs = i
		}
	}
	if el.MaxOccurs != Unbounded && el.MaxOccurs < el.MinOccurs {
		return nil, &ParseError{Msg: fmt.Sprintf("element %q: maxOccurs < minOccurs", name)}
	}
	el.Searchable = isTrue(attrAnyPrefix(n, "searchable"))
	el.Attachment = isTrue(attrAnyPrefix(n, "attachment"))

	typeName, hasType := n.Attr("type")
	inlineComplex := n.Child("complexType")
	inlineSimple := n.Child("simpleType")
	switch {
	case hasType && (inlineComplex != nil || inlineSimple != nil):
		return nil, &ParseError{Msg: fmt.Sprintf("element %q: both type attribute and inline type", name)}
	case hasType:
		el.TypeName = typeName
	case inlineComplex != nil:
		t, err := s.parseComplexType(inlineComplex)
		if err != nil {
			return nil, err
		}
		el.Type = t
	case inlineSimple != nil:
		t, err := s.parseSimpleType(inlineSimple)
		if err != nil {
			return nil, err
		}
		el.Type = t
	default:
		// No type: anyType; treat as string for U-P2P's purposes.
		el.TypeName = "xsd:string"
	}
	return el, nil
}

func (s *Schema) parseComplexType(n *xmldoc.Node) (*Type, error) {
	t := &Type{Kind: TypeComplex}
	t.Mixed = isTrue(n.AttrDefault("mixed", ""))
	for _, c := range n.Elements() {
		switch c.LocalName() {
		case "sequence", "choice", "all":
			if t.Model != 0 {
				return nil, &ParseError{Msg: "complexType with multiple compositors"}
			}
			switch c.LocalName() {
			case "sequence":
				t.Model = ModelSequence
			case "choice":
				t.Model = ModelChoice
			case "all":
				t.Model = ModelAll
			}
			for _, p := range c.Elements() {
				if p.LocalName() != "element" {
					return nil, &ParseError{Msg: fmt.Sprintf("unsupported particle <%s>", p.Name)}
				}
				el, err := s.parseElement(p)
				if err != nil {
					return nil, err
				}
				t.Children = append(t.Children, el)
			}
		case "attribute":
			a, err := s.parseAttribute(c)
			if err != nil {
				return nil, err
			}
			t.Attrs = append(t.Attrs, a)
		case "annotation":
			// Documentation; ignored.
		default:
			return nil, &ParseError{Msg: fmt.Sprintf("unsupported complexType child <%s>", c.Name)}
		}
	}
	if t.Model == 0 {
		t.Model = ModelSequence // empty content
	}
	return t, nil
}

func (s *Schema) parseAttribute(n *xmldoc.Node) (*AttrDecl, error) {
	name, ok := n.Attr("name")
	if !ok {
		return nil, &ParseError{Msg: "attribute without name"}
	}
	return &AttrDecl{
		Name:     name,
		TypeName: n.AttrDefault("type", "xsd:string"),
		Required: n.AttrDefault("use", "") == "required",
	}, nil
}

func (s *Schema) parseSimpleType(n *xmldoc.Node) (*Type, error) {
	t := &Type{Kind: TypeSimple, MinLength: -1, MaxLength: -1}
	restr := n.Child("restriction")
	if restr == nil {
		return nil, &ParseError{Msg: "simpleType without restriction"}
	}
	t.Base = restr.AttrDefault("base", "xsd:string")
	for _, f := range restr.Elements() {
		val, hasVal := f.Attr("value")
		if !hasVal {
			return nil, &ParseError{Msg: fmt.Sprintf("facet <%s> without value", f.Name)}
		}
		switch f.LocalName() {
		case "enumeration":
			t.Enum = append(t.Enum, val)
		case "pattern":
			t.Pattern = val
		case "minLength":
			i, err := strconv.Atoi(val)
			if err != nil {
				return nil, &ParseError{Msg: "bad minLength " + val}
			}
			t.MinLength = i
		case "maxLength":
			i, err := strconv.Atoi(val)
			if err != nil {
				return nil, &ParseError{Msg: "bad maxLength " + val}
			}
			t.MaxLength = i
		case "minInclusive":
			fv, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, &ParseError{Msg: "bad minInclusive " + val}
			}
			t.MinValue = &fv
		case "maxInclusive":
			fv, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, &ParseError{Msg: "bad maxInclusive " + val}
			}
			t.MaxValue = &fv
		default:
			return nil, &ParseError{Msg: fmt.Sprintf("unsupported facet <%s>", f.Name)}
		}
	}
	return t, nil
}

// resolve links every TypeName reference to a concrete *Type.
func (s *Schema) resolve() error {
	var resolveEl func(el *ElementDecl, seen map[string]bool) error
	resolveType := func(name string) (*Type, error) {
		if b, ok := LookupBuiltin(name); ok {
			return &Type{Kind: TypeBuiltin, Name: name, Builtin: b}, nil
		}
		local := name
		if i := strings.IndexByte(local, ':'); i >= 0 {
			local = local[i+1:]
		}
		if t, ok := s.Types[local]; ok {
			return t, nil
		}
		return nil, &ParseError{Msg: fmt.Sprintf("unknown type %q", name)}
	}
	resolveEl = func(el *ElementDecl, seen map[string]bool) error {
		if el.Type == nil {
			t, err := resolveType(el.TypeName)
			if err != nil {
				return fmt.Errorf("element %q: %w", el.Name, err)
			}
			el.Type = t
		}
		if el.Type.Kind == TypeComplex {
			key := el.Type.Name
			if key != "" {
				if seen[key] {
					return nil // recursive named type: already being resolved
				}
				seen[key] = true
			}
			for _, c := range el.Type.Children {
				if err := resolveEl(c, seen); err != nil {
					return err
				}
			}
			for _, a := range el.Type.Attrs {
				if a.Type == nil {
					t, err := resolveType(a.TypeName)
					if err != nil {
						return fmt.Errorf("attribute %q: %w", a.Name, err)
					}
					a.Type = t
				}
			}
		}
		if el.Type.Kind == TypeSimple && el.Type.Builtin == 0 {
			if err := s.resolveSimpleBase(el.Type, map[*Type]bool{}); err != nil {
				return fmt.Errorf("element %q: %w", el.Name, err)
			}
		}
		return nil
	}
	// Resolve named simple types' bases first (they may chain).
	for _, t := range s.Types {
		if t.Kind == TypeSimple {
			if err := s.resolveSimpleBase(t, map[*Type]bool{}); err != nil {
				return err
			}
		}
	}
	for _, el := range s.Elements {
		if err := resolveEl(el, map[string]bool{}); err != nil {
			return err
		}
	}
	return nil
}

// resolveSimpleBase computes the primitive Builtin at the bottom of a
// simple-type restriction chain.
func (s *Schema) resolveSimpleBase(t *Type, seen map[*Type]bool) error {
	if t.Builtin != 0 {
		return nil
	}
	if seen[t] {
		return &ParseError{Msg: fmt.Sprintf("cyclic simpleType derivation at %q", t.Name)}
	}
	seen[t] = true
	if b, ok := LookupBuiltin(t.Base); ok {
		t.Builtin = b
		return nil
	}
	local := t.Base
	if i := strings.IndexByte(local, ':'); i >= 0 {
		local = local[i+1:]
	}
	base, ok := s.Types[local]
	if !ok || base.Kind != TypeSimple {
		return &ParseError{Msg: fmt.Sprintf("simpleType %q: unknown base %q", t.Name, t.Base)}
	}
	if err := s.resolveSimpleBase(base, seen); err != nil {
		return err
	}
	t.Builtin = base.Builtin
	// Inherit enumeration from base when the derived type adds none
	// (restriction can only narrow).
	if len(t.Enum) == 0 {
		t.Enum = base.Enum
	}
	return nil
}

// attrAnyPrefix finds an attribute by local name regardless of prefix
// ("up2p:searchable", "searchable").
func attrAnyPrefix(n *xmldoc.Node, local string) string {
	for _, a := range n.Attrs {
		name := a.Name
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[i+1:]
		}
		if name == local {
			return a.Value
		}
	}
	return ""
}

func isTrue(v string) bool {
	return v == "true" || v == "1" || v == "yes"
}
