package xsd

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/xmldoc"
)

// Violation is one validation failure at a document location.
type Violation struct {
	// Path locates the offending node, e.g. "/community/protocol".
	Path string
	// Msg describes the failure.
	Msg string
}

func (v Violation) String() string { return v.Path + ": " + v.Msg }

// ValidationError aggregates all violations found in one document.
type ValidationError struct {
	Violations []Violation
}

func (e *ValidationError) Error() string {
	if len(e.Violations) == 1 {
		return "xsd: invalid document: " + e.Violations[0].String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "xsd: invalid document (%d violations):", len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// validator accumulates violations during a walk.
type validator struct {
	schema *Schema
	out    []Violation
}

func (v *validator) addf(path, format string, args ...any) {
	v.out = append(v.out, Violation{Path: path, Msg: fmt.Sprintf(format, args...)})
}

// Validate checks an instance document against the schema's root
// element declaration. It returns nil when valid, otherwise a
// *ValidationError listing every violation found.
func (s *Schema) Validate(doc *xmldoc.Node) error {
	if doc == nil {
		return &ValidationError{Violations: []Violation{{Path: "/", Msg: "nil document"}}}
	}
	decl, ok := s.Elements[doc.LocalName()]
	if !ok {
		return &ValidationError{Violations: []Violation{{
			Path: "/" + doc.LocalName(),
			Msg:  fmt.Sprintf("unexpected document element; schema declares %q", s.Root.Name),
		}}}
	}
	v := &validator{schema: s}
	v.element(doc, decl, "/"+doc.LocalName())
	if len(v.out) > 0 {
		return &ValidationError{Violations: v.out}
	}
	return nil
}

func (v *validator) element(n *xmldoc.Node, decl *ElementDecl, path string) {
	t := decl.Type
	if t == nil {
		return
	}
	switch t.Kind {
	case TypeBuiltin, TypeSimple:
		// Element must have text-only content.
		for _, c := range n.Children {
			if c.Kind == xmldoc.KindElement {
				v.addf(path, "element content not allowed in simple-typed element (<%s>)", c.Name)
				return
			}
		}
		v.simpleValue(strings.TrimSpace(n.Text()), t, path)
	case TypeComplex:
		v.complexContent(n, t, path)
	}
}

func (v *validator) simpleValue(val string, t *Type, path string) {
	switch t.Kind {
	case TypeBuiltin:
		if err := t.Builtin.CheckValue(val); err != nil {
			v.addf(path, "%v", err)
		}
	case TypeSimple:
		if t.Builtin != 0 {
			if err := t.Builtin.CheckValue(val); err != nil {
				v.addf(path, "%v", err)
				return
			}
		}
		if len(t.Enum) > 0 {
			found := false
			for _, e := range t.Enum {
				if e == val {
					found = true
					break
				}
			}
			if !found {
				v.addf(path, "value %q not in enumeration %v", val, t.Enum)
			}
		}
		if t.Pattern != "" {
			re, err := regexp.Compile("^(?:" + t.Pattern + ")$")
			if err != nil {
				v.addf(path, "unusable pattern facet %q: %v", t.Pattern, err)
			} else if !re.MatchString(val) {
				v.addf(path, "value %q does not match pattern %q", val, t.Pattern)
			}
		}
		runes := len([]rune(val))
		if t.MinLength >= 0 && runes < t.MinLength {
			v.addf(path, "length %d below minLength %d", runes, t.MinLength)
		}
		if t.MaxLength >= 0 && runes > t.MaxLength {
			v.addf(path, "length %d above maxLength %d", runes, t.MaxLength)
		}
		if t.MinValue != nil || t.MaxValue != nil {
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				v.addf(path, "value %q is not numeric for range facet", val)
				return
			}
			if t.MinValue != nil && f < *t.MinValue {
				v.addf(path, "value %v below minInclusive %v", f, *t.MinValue)
			}
			if t.MaxValue != nil && f > *t.MaxValue {
				v.addf(path, "value %v above maxInclusive %v", f, *t.MaxValue)
			}
		}
	}
}

func (v *validator) complexContent(n *xmldoc.Node, t *Type, path string) {
	// Attributes.
	declared := make(map[string]*AttrDecl, len(t.Attrs))
	for _, a := range t.Attrs {
		declared[a.Name] = a
		if _, present := n.Attr(a.Name); a.Required && !present {
			v.addf(path, "missing required attribute %q", a.Name)
		}
	}
	for _, a := range n.Attrs {
		if strings.HasPrefix(a.Name, "xmlns") || strings.Contains(a.Name, ":") {
			continue // namespace decls and foreign-namespace attrs allowed
		}
		d, ok := declared[a.Name]
		if !ok {
			v.addf(path, "undeclared attribute %q", a.Name)
			continue
		}
		if d.Type != nil {
			v.simpleValue(a.Value, d.Type, path+"/@"+a.Name)
		}
	}
	// Text content only allowed when mixed.
	if !t.Mixed {
		for _, c := range n.Children {
			if c.Kind == xmldoc.KindText && strings.TrimSpace(c.Data) != "" {
				v.addf(path, "text content not allowed in element-only content")
				break
			}
		}
	}
	kids := n.Elements()
	switch t.Model {
	case ModelSequence:
		v.sequence(kids, t.Children, path)
	case ModelChoice:
		v.choice(kids, t.Children, path)
	case ModelAll:
		v.all(kids, t.Children, path)
	}
}

// sequence validates ordered content with occurrence counting.
func (v *validator) sequence(kids []*xmldoc.Node, decls []*ElementDecl, path string) {
	i := 0
	for _, d := range decls {
		count := 0
		for i < len(kids) && kids[i].LocalName() == d.Name {
			v.element(kids[i], d, childPath(path, d.Name, count))
			i++
			count++
			if d.MaxOccurs != Unbounded && count >= d.MaxOccurs {
				break
			}
		}
		if count < d.MinOccurs {
			v.addf(path, "expected %d+ <%s>, found %d", d.MinOccurs, d.Name, count)
		}
	}
	for ; i < len(kids); i++ {
		v.addf(path, "unexpected element <%s>", kids[i].Name)
	}
}

// choice validates that children all match exactly one branch.
func (v *validator) choice(kids []*xmldoc.Node, decls []*ElementDecl, path string) {
	if len(kids) == 0 {
		// Valid only if some branch allows zero occurrences.
		for _, d := range decls {
			if d.MinOccurs == 0 {
				return
			}
		}
		v.addf(path, "empty content; choice requires one of %s", declNames(decls))
		return
	}
	var branch *ElementDecl
	for _, d := range decls {
		if d.Name == kids[0].LocalName() {
			branch = d
			break
		}
	}
	if branch == nil {
		v.addf(path, "element <%s> matches no choice branch %s", kids[0].Name, declNames(decls))
		return
	}
	count := 0
	for _, k := range kids {
		if k.LocalName() != branch.Name {
			v.addf(path, "mixed choice branches: <%s> after <%s>", k.Name, branch.Name)
			return
		}
		v.element(k, branch, childPath(path, branch.Name, count))
		count++
	}
	if count < branch.MinOccurs {
		v.addf(path, "expected %d+ <%s>, found %d", branch.MinOccurs, branch.Name, count)
	}
	if branch.MaxOccurs != Unbounded && count > branch.MaxOccurs {
		v.addf(path, "expected at most %d <%s>, found %d", branch.MaxOccurs, branch.Name, count)
	}
}

// all validates unordered content where each declared element appears
// within its occurrence bounds.
func (v *validator) all(kids []*xmldoc.Node, decls []*ElementDecl, path string) {
	counts := make(map[string]int, len(decls))
	byName := make(map[string]*ElementDecl, len(decls))
	for _, d := range decls {
		byName[d.Name] = d
	}
	for _, k := range kids {
		d, ok := byName[k.LocalName()]
		if !ok {
			v.addf(path, "unexpected element <%s>", k.Name)
			continue
		}
		v.element(k, d, childPath(path, d.Name, counts[d.Name]))
		counts[d.Name]++
	}
	for _, d := range decls {
		c := counts[d.Name]
		if c < d.MinOccurs {
			v.addf(path, "expected %d+ <%s>, found %d", d.MinOccurs, d.Name, c)
		}
		max := d.MaxOccurs
		if max == Unbounded {
			continue
		}
		if max > 1 {
			max = 1 // xsd:all caps occurrences at 1
		}
		if c > max {
			v.addf(path, "expected at most %d <%s>, found %d", max, d.Name, c)
		}
	}
}

func childPath(parent, name string, idx int) string {
	if idx == 0 {
		return parent + "/" + name
	}
	return fmt.Sprintf("%s/%s[%d]", parent, name, idx+1)
}

func declNames(decls []*ElementDecl) string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	return "{" + strings.Join(names, ", ") + "}"
}
