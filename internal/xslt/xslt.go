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

	"repro/internal/errs"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// maxDepth bounds template recursion so a buggy stylesheet terminates
// with an error instead of exhausting the stack.
const maxDepth = 500

// The Apply budget bounds the work one Apply may do, so a stylesheet
// from a stranger (a community's display or index transform) cannot
// run away in time or memory below maxDepth: a self-recursive template
// that calls itself twice doubles its work with every level. One Apply
// may execute at most maxSteps instructions (an instruction of a
// template body, or a node dispatched by apply-templates), select at
// most maxSelected nodes in total through for-each, apply-templates and
// copy-of, and build at most maxOutput bytes of result markup.
const (
	maxSteps    = 1 << 20
	maxSelected = 1 << 20
	maxOutput   = 16 << 20
)

// ErrTooDeep is returned when template recursion exceeds maxDepth.
var ErrTooDeep = errors.New("xslt: template recursion too deep")

// ErrBudget is returned when one Apply exceeds its budget.
var ErrBudget error = errs.New("xslt.budget", "xslt: transform exceeded its budget")

// Stylesheet is a compiled, reusable transformation. It is immutable
// once Compile returns: applying it builds all working state (the
// variable stack, the result tree) per call and only reads the
// stylesheet and the input document, so one Stylesheet may be applied from any number
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
	ex, err := s.run(doc)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(ex.written)
	for _, n := range ex.output.Children {
		if n.Kind == xmldoc.KindText && s.output == "text" {
			b.WriteString(n.Data)
			continue
		}
		n.AppendXML(&b)
	}
	return b.String(), nil
}

// ApplyNodes transforms doc and returns the result tree's top-level
// nodes, for callers that post-process output structurally (a custom
// indexing transform). The stylesheet and doc are only read, so
// concurrent calls — on the same doc too — are safe; each returns a
// result tree of its own.
func (s *Stylesheet) ApplyNodes(doc *xmldoc.Node) ([]*xmldoc.Node, error) {
	ex, err := s.run(doc)
	if err != nil {
		return nil, err
	}
	return ex.output.Children, nil
}

// run applies the stylesheet to doc and returns the executor holding
// the result tree and the budget spent, also when it fails.
func (s *Stylesheet) run(doc *xmldoc.Node) (*executor, error) {
	if doc == nil {
		return nil, errors.New("xslt: nil input document")
	}
	ex := &executor{sheet: s}
	ex.output = xmldoc.Node{Kind: xmldoc.KindElement, Name: "#output"}
	// Processing starts at a virtual document node wrapping doc, so
	// that match="/" has a node to match, mirroring the xpath package.
	ex.top = [2]*xmldoc.Node{doc, &ex.document}
	ex.document = xmldoc.Node{Kind: xmldoc.KindElement, Name: "#document", Children: ex.top[:1:1]}
	err := ex.applyTemplates(execCtx{node: doc, pos: 1, size: 1}, ex.top[1:], &ex.output, nil)
	ex.close(&ex.output, 0)
	if err == nil {
		err = ex.overBudget()
	}
	return ex, err
}

// execCtx is the dynamic context during execution. It is passed by
// value: moving to the next node of a loop allocates nothing.
type execCtx struct {
	node  *xmldoc.Node
	pos   int
	size  int
	depth int
}

// executor runs a compiled stylesheet over one input document. It
// owns all of one Apply's working state.
type executor struct {
	sheet *Stylesheet

	// vars is the variable stack: every binding of the bodies being
	// executed, innermost last. A binding is pushed when it is made
	// and the stack is cut back when its body exits, so lookups run
	// from the top and a body that binds nothing costs nothing.
	vars []xpath.Binding
	// args holds the with-param values of the calls in progress.
	args []xpath.Binding
	// env is the one xpath.Env every evaluation reads.
	env xpath.Env

	// The result tree. kids holds the children of the result elements
	// still open, in order; closing an element moves its run into a
	// list carved from ptrs. Nodes, child lists and attribute lists
	// are carved from chunks (nodes, ptrs, attrs) owned by the Apply.
	output   xmldoc.Node
	document xmldoc.Node
	top      [2]*xmldoc.Node
	kids     []*xmldoc.Node
	nodes    []xmldoc.Node
	ptrs     []*xmldoc.Node
	attrs    []xmldoc.Attr

	// The budget spent so far: instructions executed, nodes selected,
	// bytes of result markup.
	steps, selected, written int
}

// step charges one instruction to the budget and checks it.
func (ex *executor) step() error {
	ex.steps++
	return ex.overBudget()
}

// overBudget checks every limit of the budget: the one place it is
// enforced.
func (ex *executor) overBudget() error {
	if ex.steps > maxSteps || ex.selected > maxSelected || ex.written > maxOutput {
		return ErrBudget
	}
	return nil
}

// eval evaluates e in ctx with every variable in scope.
func (ex *executor) eval(e *xpath.Expr, ctx execCtx) xpath.Value {
	return e.EvalEnv(ctx.node, ex.envFor(ctx, ex.vars))
}

// envFor points the executor's Env at ctx and vars.
func (ex *executor) envFor(ctx execCtx, vars []xpath.Binding) *xpath.Env {
	ex.env = xpath.Env{Vars: vars, Position: ctx.pos, Size: ctx.size}
	return &ex.env
}

// selectNodes evaluates a select that must yield a node-set and
// charges its size to the budget.
func (ex *executor) selectNodes(e *xpath.Expr, ctx execCtx, what string) ([]*xmldoc.Node, error) {
	v := ex.eval(e, ctx)
	if v.Kind != xpath.KindNodeSet {
		return nil, fmt.Errorf("xslt: %s select %q is not a node-set", what, e.Source())
	}
	ex.selected += len(v.Nodes)
	return v.Nodes, nil
}

// execAll runs a compiled body. Variable scoping: the bindings the
// body makes are dropped when it exits, so xsl:variable bindings do
// not leak to siblings of the enclosing instruction.
func (ex *executor) execAll(ctx execCtx, body []instruction, out *xmldoc.Node) error {
	mark := len(ex.vars)
	var err error
	for _, ins := range body {
		if err = ex.step(); err == nil {
			err = ins.exec(ex, ctx, out)
		}
		if err != nil {
			break
		}
	}
	ex.vars = ex.vars[:mark]
	return err
}

// applyTemplates processes a node list, dispatching each node to its
// best-matching template or the built-in rules.
func (ex *executor) applyTemplates(ctx execCtx, nodes []*xmldoc.Node, out *xmldoc.Node, args []xpath.Binding) error {
	if ctx.depth > maxDepth {
		return ErrTooDeep
	}
	ex.selected += len(nodes)
	sub := execCtx{size: len(nodes), depth: ctx.depth + 1}
	for i, n := range nodes {
		if err := ex.step(); err != nil {
			return err
		}
		sub.node, sub.pos = n, i+1
		t := ex.bestTemplate(n)
		var err error
		if t == nil {
			err = ex.builtinRule(sub, n, out)
		} else {
			err = ex.invoke(sub, t, out, args)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// invoke runs a template body with parameter binding. A parameter's
// default is evaluated among the caller's variables only, not the
// template's earlier parameters.
func (ex *executor) invoke(ctx execCtx, t *template, out *xmldoc.Node, args []xpath.Binding) error {
	mark := len(ex.vars)
	passed := xpath.Env{Vars: args}
	for _, pd := range t.params {
		v, ok := passed.Lookup(pd.name)
		switch {
		case ok:
		case pd.sel != nil:
			v = pd.sel.EvalEnv(ctx.node, ex.envFor(ctx, ex.vars[:mark]))
		default:
			v = xpath.StringValue("")
		}
		ex.vars = append(ex.vars, xpath.Binding{Name: pd.name, Value: v})
	}
	err := ex.execAll(ctx, t.body, out)
	ex.vars = ex.vars[:mark]
	return err
}

// pushArgs evaluates with-param values onto the argument stack and
// returns them with the mark to cut the stack back to once the call
// returns.
func (ex *executor) pushArgs(ctx execCtx, params []withParam) ([]xpath.Binding, int) {
	mark := len(ex.args)
	for _, p := range params {
		v := xpath.StringValue(p.text)
		if p.sel != nil {
			v = ex.eval(p.sel, ctx)
		}
		ex.args = append(ex.args, xpath.Binding{Name: p.name, Value: v})
	}
	return ex.args[mark:], mark
}

// carve returns an empty slice with room for n elements, cut from the
// chunk. A chunk without room is replaced by a fresh one twice its
// size, from 8 up to 256 elements, so a small output pays for small
// chunks only.
func carve[T any](chunk *[]T, n int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(n, min(2*cap(*chunk), 256), 8))
	}
	l := len(*chunk)
	*chunk = (*chunk)[:l+n]
	return (*chunk)[l : l : l+n]
}

// newNode carves a result node and charges its markup to the budget.
func (ex *executor) newNode(kind xmldoc.Kind, name, data string) *xmldoc.Node {
	s := append(carve(&ex.nodes, 1), xmldoc.Node{Kind: kind, Name: name, Data: data})
	ex.written += len(data)
	if kind == xmldoc.KindElement {
		ex.written += 2*len(name) + 5 // <name></name>
	}
	return &s[0]
}

// emit appends n as the next child of the open element parent.
func (ex *executor) emit(parent, n *xmldoc.Node) {
	n.Parent = parent
	ex.kids = append(ex.kids, n)
}

// text emits a text node.
func (ex *executor) text(parent *xmldoc.Node, data string) {
	ex.emit(parent, ex.newNode(xmldoc.KindText, "", data))
}

// close gives parent the children emitted since mark.
func (ex *executor) close(parent *xmldoc.Node, mark int) {
	if kids := ex.kids[mark:]; len(kids) > 0 {
		parent.Children = append(carve(&ex.ptrs, len(kids)), kids...)
	}
	ex.kids = ex.kids[:mark]
}

// element runs body into a new result element and emits it.
func (ex *executor) element(ctx execCtx, el *xmldoc.Node, body []instruction, out *xmldoc.Node) error {
	mark := len(ex.kids)
	err := ex.execAll(ctx, body, el)
	ex.close(el, mark)
	if err != nil {
		return err
	}
	ex.emit(out, el)
	return nil
}

// bodyText runs body into a scratch element and returns the
// string-value of what it wrote: the value of xsl:attribute and of an
// xsl:variable without select.
func (ex *executor) bodyText(ctx execCtx, body []instruction) (string, error) {
	tmp := ex.newNode(xmldoc.KindElement, "#tmp", "")
	mark := len(ex.kids)
	err := ex.execAll(ctx, body, tmp)
	tmp.Children = ex.kids[mark:]
	s := tmp.Text()
	ex.kids = ex.kids[:mark]
	return s, err
}

// setAttr sets an attribute on a result element.
func (ex *executor) setAttr(el *xmldoc.Node, name, value string) {
	ex.written += len(name) + len(value) + 4 // name="value"
	el.SetAttr(name, value)
}

// clone copies the subtree at n into the result tree.
func (ex *executor) clone(n *xmldoc.Node) *xmldoc.Node {
	c := ex.newNode(n.Kind, n.Name, n.Data)
	if len(n.Attrs) > 0 {
		c.Attrs = carve(&ex.attrs, len(n.Attrs))
		for _, a := range n.Attrs {
			ex.setAttr(c, a.Name, a.Value)
		}
	}
	mark := len(ex.kids)
	for _, ch := range n.Children {
		ex.emit(c, ex.clone(ch))
	}
	ex.close(c, mark)
	return c
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
func (ex *executor) builtinRule(ctx execCtx, n *xmldoc.Node, out *xmldoc.Node) error {
	switch n.Kind {
	case xmldoc.KindElement:
		return ex.applyTemplates(ctx, n.Children, out, nil)
	case xmldoc.KindText:
		ex.text(out, n.Data)
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
