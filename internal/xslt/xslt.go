// Package xslt implements the XSLT 1.0 subset that powers U-P2P's
// generative architecture (paper Fig. 2): default and custom
// stylesheets transform a community's XML Schema into create/search
// HTML forms, transform shared objects into view pages, and filter
// indexable attributes out of objects before submission to the
// metadata index.
//
// Supported instructions: template (match/name, priority, params),
// apply-templates (select, with-param), call-template, value-of,
// for-each (with sort), if, choose/when/otherwise, text, element,
// attribute, copy, copy-of, variable, param, with-param, plus literal
// result elements with attribute value templates. Built-in template
// rules follow the spec: elements recurse, text copies through.
package xslt

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// maxDepth bounds template recursion so a buggy stylesheet terminates
// with an error instead of exhausting the stack.
const maxDepth = 500

// ErrTooDeep is returned when template recursion exceeds maxDepth.
var ErrTooDeep = errors.New("xslt: template recursion too deep")

// Stylesheet is a compiled, reusable transformation. It is immutable
// once Compile returns: applying it builds all working state (variable
// scopes, the result tree) per call and only reads the stylesheet and
// the input document, so one Stylesheet may be applied from any number
// of goroutines at once — U-P2P compiles a community's stylesheets
// when the community is constructed and shares them process-wide.
type Stylesheet struct {
	templates []*template
	named     map[string]*template
	output    string // "xml", "html", or "text"
}

// template is one xsl:template rule.
type template struct {
	match    *pattern // nil for named-only templates
	name     string
	priority float64
	order    int // document order for tie-breaking
	params   []paramDecl
	body     []instruction
}

type paramDecl struct {
	name string
	sel  *xpath.Expr // default value; nil means empty string
}

// Compile builds a Stylesheet from its document form.
func Compile(doc *xmldoc.Node) (*Stylesheet, error) {
	if doc == nil || doc.LocalName() != "stylesheet" && doc.LocalName() != "transform" {
		return nil, errors.New("xslt: document element is not xsl:stylesheet")
	}
	s := &Stylesheet{named: make(map[string]*template), output: "xml"}
	for _, c := range doc.Elements() {
		switch c.LocalName() {
		case "template":
			t := &template{order: len(s.templates)}
			if m, ok := c.Attr("match"); ok {
				p, err := compilePattern(m)
				if err != nil {
					return nil, err
				}
				t.match = p
				t.priority = p.defaultPriority()
			}
			if pr, ok := c.Attr("priority"); ok {
				f, err := strconv.ParseFloat(pr, 64)
				if err != nil {
					return nil, fmt.Errorf("xslt: bad priority %q", pr)
				}
				t.priority = f
			}
			if n, ok := c.Attr("name"); ok {
				t.name = n
				if _, dup := s.named[n]; dup {
					return nil, fmt.Errorf("xslt: duplicate template name %q", n)
				}
				s.named[n] = t
			}
			if t.match == nil && t.name == "" {
				return nil, errors.New("xslt: template needs match or name")
			}
			body := c.Children
			// Leading xsl:param children declare template parameters.
			for len(body) > 0 {
				first := firstElement(body)
				if first == nil || first.LocalName() != "param" || first.Prefix() != "xsl" {
					break
				}
				pd := paramDecl{name: first.AttrDefault("name", "")}
				if pd.name == "" {
					return nil, errors.New("xslt: param without name")
				}
				if sel, ok := first.Attr("select"); ok {
					e, err := xpath.Compile(sel)
					if err != nil {
						return nil, fmt.Errorf("xslt: param %s: %w", pd.name, err)
					}
					pd.sel = e
				}
				t.params = append(t.params, pd)
				body = body[indexOf(body, first)+1:]
			}
			ins, err := compileSequence(body)
			if err != nil {
				return nil, err
			}
			t.body = ins
			s.templates = append(s.templates, t)
		case "output":
			if m, ok := c.Attr("method"); ok {
				s.output = m
			}
		case "variable", "param", "import", "include", "strip-space", "preserve-space", "key", "attribute-set":
			// Top-level variables are rare in U-P2P's stylesheets;
			// unsupported declarations are rejected loudly rather than
			// silently ignored.
			if c.LocalName() == "variable" || c.LocalName() == "param" {
				return nil, fmt.Errorf("xslt: top-level xsl:%s not supported", c.LocalName())
			}
			return nil, fmt.Errorf("xslt: unsupported declaration xsl:%s", c.LocalName())
		default:
			return nil, fmt.Errorf("xslt: unexpected top-level element <%s>", c.Name)
		}
	}
	if len(s.templates) == 0 {
		return nil, errors.New("xslt: stylesheet has no templates")
	}
	return s, nil
}

// CompileString parses and compiles a stylesheet from text.
func CompileString(src string) (*Stylesheet, error) {
	doc, err := xmldoc.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("xslt: %w", err)
	}
	return Compile(doc)
}

// MustCompileString panics on error; for built-in stylesheets.
func MustCompileString(src string) *Stylesheet {
	s, err := CompileString(src)
	if err != nil {
		panic(err)
	}
	return s
}

// Apply transforms doc and returns the serialized result. The result
// is the concatenation of top-level output: text, or markup when the
// transform emits elements. Safe for concurrent use, see Stylesheet.
func (s *Stylesheet) Apply(doc *xmldoc.Node) (string, error) {
	nodes, err := s.ApplyNodes(doc)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, n := range nodes {
		if n.Kind == xmldoc.KindText && s.output == "text" {
			b.WriteString(n.Data)
			continue
		}
		b.WriteString(n.String())
	}
	return b.String(), nil
}

// ApplyNodes transforms doc and returns the result tree's top-level
// nodes, for callers that post-process output structurally (the
// indexing transform). The stylesheet and doc are only read, so
// concurrent calls — on the same doc too — are safe; each returns a
// result tree of its own.
func (s *Stylesheet) ApplyNodes(doc *xmldoc.Node) ([]*xmldoc.Node, error) {
	if doc == nil {
		return nil, errors.New("xslt: nil input document")
	}
	ex := &executor{sheet: s, root: doc}
	out := xmldoc.NewElement("#output")
	// Processing starts at the (virtual) document root, matching "/".
	if err := ex.applyTemplates(docContext(doc), []*xmldoc.Node{virtualRoot(doc)}, out, nil); err != nil {
		return nil, err
	}
	return out.Children, nil
}

// virtualRoot wraps the document element in a transient parent so that
// match="/" has a node to match, mirroring the xpath package.
func virtualRoot(doc *xmldoc.Node) *xmldoc.Node {
	return &xmldoc.Node{
		Kind:     xmldoc.KindElement,
		Name:     "#document",
		Children: []*xmldoc.Node{doc},
	}
}

func docContext(doc *xmldoc.Node) *execCtx {
	return &execCtx{node: doc, pos: 1, size: 1, vars: map[string]xpath.Value{}}
}

// execCtx is the dynamic context during execution.
type execCtx struct {
	node  *xmldoc.Node
	pos   int
	size  int
	vars  map[string]xpath.Value
	depth int
}

func (c *execCtx) child(n *xmldoc.Node, pos, size int) *execCtx {
	return &execCtx{node: n, pos: pos, size: size, vars: c.vars, depth: c.depth + 1}
}

// withVars returns a context with an extended variable scope.
func (c *execCtx) withVars() *execCtx {
	nv := make(map[string]xpath.Value, len(c.vars)+2)
	for k, v := range c.vars {
		nv[k] = v
	}
	return &execCtx{node: c.node, pos: c.pos, size: c.size, vars: nv, depth: c.depth}
}

func (c *execCtx) env() *xpath.Env {
	return &xpath.Env{Vars: c.vars, Position: c.pos, Size: c.size}
}

// executor runs a compiled stylesheet over one input document.
type executor struct {
	sheet *Stylesheet
	root  *xmldoc.Node
}

// applyTemplates processes a node list, dispatching each node to its
// best-matching template or the built-in rules.
func (ex *executor) applyTemplates(ctx *execCtx, nodes []*xmldoc.Node, out *xmldoc.Node, params map[string]xpath.Value) error {
	if ctx.depth > maxDepth {
		return ErrTooDeep
	}
	size := len(nodes)
	for i, n := range nodes {
		sub := ctx.child(n, i+1, size)
		t := ex.bestTemplate(n)
		if t == nil {
			if err := ex.builtinRule(sub, n, out); err != nil {
				return err
			}
			continue
		}
		if err := ex.invoke(sub, t, out, params); err != nil {
			return err
		}
	}
	return nil
}

// invoke runs a template body with parameter binding.
func (ex *executor) invoke(ctx *execCtx, t *template, out *xmldoc.Node, params map[string]xpath.Value) error {
	scope := ctx.withVars()
	for _, pd := range t.params {
		if v, ok := params[pd.name]; ok {
			scope.vars[pd.name] = v
			continue
		}
		if pd.sel != nil {
			scope.vars[pd.name] = pd.sel.EvalEnv(ctx.node, ctx.env())
			continue
		}
		scope.vars[pd.name] = xpath.StringValue("")
	}
	return execAll(ex, scope, t.body, out)
}

// bestTemplate picks the matching template with highest priority,
// breaking ties by document order (last wins, per spec recovery).
func (ex *executor) bestTemplate(n *xmldoc.Node) *template {
	var best *template
	for _, t := range ex.sheet.templates {
		if t.match == nil || !t.match.matches(n) {
			continue
		}
		if best == nil || t.priority > best.priority ||
			(t.priority == best.priority && t.order > best.order) {
			best = t
		}
	}
	return best
}

// builtinRule implements the XSLT built-in templates: the document
// root and elements recurse into children; text copies through;
// attributes and comments produce nothing.
func (ex *executor) builtinRule(ctx *execCtx, n *xmldoc.Node, out *xmldoc.Node) error {
	switch n.Kind {
	case xmldoc.KindElement:
		return ex.applyTemplates(ctx, n.Children, out, nil)
	case xmldoc.KindText:
		out.AppendChild(xmldoc.NewText(n.Data))
	}
	return nil
}

func firstElement(nodes []*xmldoc.Node) *xmldoc.Node {
	for _, n := range nodes {
		if n.Kind == xmldoc.KindElement {
			return n
		}
		if n.Kind == xmldoc.KindText && strings.TrimSpace(n.Data) != "" {
			return nil
		}
	}
	return nil
}

func indexOf(nodes []*xmldoc.Node, target *xmldoc.Node) int {
	for i, n := range nodes {
		if n == target {
			return i
		}
	}
	return -1
}

// sortSpec captures one xsl:sort.
type sortSpec struct {
	sel      *xpath.Expr
	numeric  bool
	reversed bool
}

func sortNodes(nodes []*xmldoc.Node, specs []sortSpec, env *xpath.Env) []*xmldoc.Node {
	if len(specs) == 0 {
		return nodes
	}
	sorted := append([]*xmldoc.Node(nil), nodes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		for _, sp := range specs {
			vi := sp.sel.EvalEnv(sorted[i], env)
			vj := sp.sel.EvalEnv(sorted[j], env)
			var less, eq bool
			if sp.numeric {
				ni, nj := vi.Number(), vj.Number()
				less, eq = ni < nj, ni == nj
			} else {
				si, sj := vi.String(), vj.String()
				less, eq = si < sj, si == sj
			}
			if eq {
				continue
			}
			if sp.reversed {
				return !less
			}
			return less
		}
		return false
	})
	return sorted
}
