// Package xpath implements the subset of XPath 1.0 that U-P2P's
// stylesheets and indexing transforms require: location paths over all
// major axes, predicates with position semantics, the four value
// types, the core function library, node-set unions, and arithmetic /
// comparison operators.
//
// The engine evaluates over xmldoc trees. Name tests match on local
// name when unprefixed ("element" matches "xsd:element") and on the
// exact prefixed name otherwise, which mirrors how the paper's
// documents address nodes.
package xpath

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xmldoc"
)

// Expr is a compiled XPath expression, safe for concurrent use.
type Expr struct {
	src  string
	root expr
}

// Compile parses src into a reusable expression.
func Compile(src string) (*Expr, error) {
	root, err := parse(src)
	if err != nil {
		return nil, err
	}
	return &Expr{src: src, root: root}, nil
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// Env carries optional evaluation bindings.
type Env struct {
	// Vars binds $name variable references.
	Vars map[string]Value
	// Position and Size set the initial context position()/last();
	// zero values default to 1. XSLT supplies these for nodes being
	// processed inside for-each / apply-templates.
	Position int
	Size     int
}

// context is the dynamic evaluation context.
type context struct {
	node *xmldoc.Node
	pos  int // 1-based position() within size
	size int
	env  *Env
}

func (c *context) at(n *xmldoc.Node, pos, size int) *context {
	return &context{node: n, pos: pos, size: size, env: c.env}
}

// Eval evaluates the expression with n as the context node.
func (e *Expr) Eval(n *xmldoc.Node) Value {
	return e.EvalEnv(n, nil)
}

// EvalEnv evaluates with variable bindings.
func (e *Expr) EvalEnv(n *xmldoc.Node, env *Env) Value {
	pos, size := 1, 1
	if env != nil {
		if env.Position > 0 {
			pos = env.Position
		}
		if env.Size > 0 {
			size = env.Size
		}
	}
	ctx := &context{node: n, pos: pos, size: size, env: env}
	return e.root.eval(ctx)
}

// EvalBool is a convenience for Eval(...).Boolean().
func (e *Expr) EvalBool(n *xmldoc.Node) bool { return e.Eval(n).Boolean() }

// --- expression evaluation ---

func (b *binOp) eval(ctx *context) Value {
	switch b.op {
	case "or":
		if b.l.eval(ctx).Boolean() {
			return BooleanValue(true)
		}
		return BooleanValue(b.r.eval(ctx).Boolean())
	case "and":
		if !b.l.eval(ctx).Boolean() {
			return BooleanValue(false)
		}
		return BooleanValue(b.r.eval(ctx).Boolean())
	case "=", "!=":
		return BooleanValue(compareEq(b.l.eval(ctx), b.r.eval(ctx), b.op == "!="))
	case "<", "<=", ">", ">=":
		return BooleanValue(compareRel(b.l.eval(ctx), b.r.eval(ctx), b.op))
	}
	l, r := b.l.eval(ctx).Number(), b.r.eval(ctx).Number()
	switch b.op {
	case "+":
		return NumberValue(l + r)
	case "-":
		return NumberValue(l - r)
	case "*":
		return NumberValue(l * r)
	case "div":
		return NumberValue(l / r)
	case "mod":
		return NumberValue(math.Mod(l, r))
	}
	panic(fmt.Sprintf("xpath: unknown operator %q", b.op))
}

// compareEq implements XPath = / != semantics including node-set
// existential comparison.
func compareEq(l, r Value, neq bool) bool {
	eq := func(a, b Value) bool {
		// If either is boolean compare as booleans; else if either is
		// number compare as numbers; else strings.
		switch {
		case a.Kind == KindBoolean || b.Kind == KindBoolean:
			return a.Boolean() == b.Boolean()
		case a.Kind == KindNumber || b.Kind == KindNumber:
			return a.Number() == b.Number()
		default:
			return a.String() == b.String()
		}
	}
	if l.Kind == KindNodeSet && r.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			for _, rn := range r.Nodes {
				same := nodeStringValue(ln) == nodeStringValue(rn)
				if same != neq {
					return true
				}
			}
		}
		return false
	}
	if l.Kind == KindNodeSet {
		l, r = r, l
	}
	if r.Kind == KindNodeSet {
		for _, rn := range r.Nodes {
			res := eq(l, StringValue(nodeStringValue(rn)))
			if res != neq {
				return true
			}
		}
		return false
	}
	return eq(l, r) != neq
}

func compareRel(l, r Value, op string) bool {
	cmp := func(a, b float64) bool {
		switch op {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		default:
			return a >= b
		}
	}
	lvals := relOperands(l)
	rvals := relOperands(r)
	for _, a := range lvals {
		for _, b := range rvals {
			if cmp(a, b) {
				return true
			}
		}
	}
	return false
}

func relOperands(v Value) []float64 {
	if v.Kind == KindNodeSet {
		out := make([]float64, 0, len(v.Nodes))
		for _, n := range v.Nodes {
			out = append(out, parseNumber(nodeStringValue(n)))
		}
		return out
	}
	return []float64{v.Number()}
}

func (n *negExpr) eval(ctx *context) Value {
	return NumberValue(-n.x.eval(ctx).Number())
}

func (u *unionExpr) eval(ctx *context) Value {
	l := u.l.eval(ctx)
	r := u.r.eval(ctx)
	seen := make(map[*xmldoc.Node]bool, len(l.Nodes)+len(r.Nodes))
	out := make([]*xmldoc.Node, 0, len(l.Nodes)+len(r.Nodes))
	for _, set := range [][]*xmldoc.Node{l.Nodes, r.Nodes} {
		for _, n := range set {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return NodeSetValue(out)
}

func (n *numberLit) eval(*context) Value { return NumberValue(n.v) }
func (s *stringLit) eval(*context) Value { return StringValue(s.v) }

func (v *varRef) eval(ctx *context) Value {
	if ctx.env != nil {
		if val, ok := ctx.env.Vars[v.name]; ok {
			return val
		}
	}
	return StringValue("")
}

func (f *funcCall) eval(ctx *context) Value {
	fn := coreFunctions[f.name]
	return fn(ctx, f.args)
}

func (fe *filterExpr) eval(ctx *context) Value {
	v := fe.primary.eval(ctx)
	if v.Kind != KindNodeSet {
		return v
	}
	nodes := v.Nodes
	for _, pred := range fe.preds {
		nodes = applyPredicate(ctx, nodes, pred)
	}
	return NodeSetValue(nodes)
}

func (pe *pathExpr) eval(ctx *context) Value {
	var current []*xmldoc.Node
	switch {
	case pe.start != nil:
		v := pe.start.eval(ctx)
		if v.Kind != KindNodeSet {
			return NodeSetValue(nil)
		}
		current = v.Nodes
	case pe.abs:
		root := ctx.node.Root()
		if len(pe.steps) == 0 {
			// "/" alone selects the root element (this tree has no
			// separate document node to expose). When evaluation
			// already started at a virtual document node (XSLT), peel
			// it to the document element.
			if root.Name == "#document" && len(root.Children) == 1 {
				return NodeSetValue([]*xmldoc.Node{root.Children[0]})
			}
			return NodeSetValue([]*xmldoc.Node{root})
		}
		// Evaluate steps from a transient document node so that
		// "/library" matches the document element itself. If the tree
		// is already rooted at a virtual document node, reuse it.
		docNode := root
		if root.Name != "#document" {
			docNode = &xmldoc.Node{
				Kind:     xmldoc.KindElement,
				Name:     "#document",
				Children: []*xmldoc.Node{root},
			}
		}
		current = []*xmldoc.Node{docNode}
	default:
		current = []*xmldoc.Node{ctx.node}
	}
	for _, st := range pe.steps {
		current = evalStep(ctx, current, st)
		if len(current) == 0 {
			break
		}
	}
	return NodeSetValue(current)
}

// evalStep applies one location step to each node in the input set,
// concatenating results in document order and de-duplicating.
func evalStep(ctx *context, input []*xmldoc.Node, st *step) []*xmldoc.Node {
	var out []*xmldoc.Node
	seen := map[*xmldoc.Node]bool{}
	for _, n := range input {
		cands := axisNodes(n, st.ax)
		matched := make([]*xmldoc.Node, 0, len(cands))
		for _, c := range cands {
			if matchTest(c, st.test, st.ax) {
				matched = append(matched, c)
			}
		}
		for _, pred := range st.preds {
			matched = applyPredicate(ctx, matched, pred)
		}
		for _, m := range matched {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	if len(input) > 1 {
		// Steps applied to multiple input nodes can interleave results
		// out of document order (e.g. the expansion of //); restore it.
		out = sortDocOrder(out)
	}
	return out
}

// sortDocOrder sorts nodes into document order by indexing one walk of
// the shared root. Synthesized attribute nodes order just after their
// owning element, by attribute position.
func sortDocOrder(nodes []*xmldoc.Node) []*xmldoc.Node {
	if len(nodes) < 2 {
		return nodes
	}
	idx := make(map[*xmldoc.Node]int)
	i := 0
	nodes[0].Root().Walk(func(n *xmldoc.Node) bool {
		idx[n] = i
		i += 16 // leave room for attribute offsets
		return true
	})
	key := func(n *xmldoc.Node) int {
		if n.Kind == xmldoc.KindAttribute && n.Parent != nil {
			base, ok := idx[n.Parent]
			if !ok {
				return 1 << 30
			}
			for ai, a := range n.Parent.Attrs {
				if a.Name == n.Name {
					return base + 1 + ai
				}
			}
			return base + 1
		}
		if k, ok := idx[n]; ok {
			return k
		}
		return 1 << 30 // foreign tree: keep at the end, stable
	}
	sort.SliceStable(nodes, func(a, b int) bool { return key(nodes[a]) < key(nodes[b]) })
	return nodes
}

// applyPredicate filters nodes by the predicate, honouring position
// semantics: a numeric predicate selects that 1-based position.
func applyPredicate(ctx *context, nodes []*xmldoc.Node, pred expr) []*xmldoc.Node {
	out := nodes[:0:0]
	size := len(nodes)
	for i, n := range nodes {
		sub := ctx.at(n, i+1, size)
		v := pred.eval(sub)
		if v.Kind == KindNumber {
			if int(v.Num) == i+1 {
				out = append(out, n)
			}
			continue
		}
		if v.Boolean() {
			out = append(out, n)
		}
	}
	return out
}

// axisNodes returns the candidate nodes along an axis, in axis order.
func axisNodes(n *xmldoc.Node, ax axis) []*xmldoc.Node {
	switch ax {
	case axisChild:
		return n.Children
	case axisSelf:
		return []*xmldoc.Node{n}
	case axisParent:
		if n.Parent != nil {
			return []*xmldoc.Node{n.Parent}
		}
		return nil
	case axisAncestor, axisAncestorOrSelf:
		var out []*xmldoc.Node
		if ax == axisAncestorOrSelf {
			out = append(out, n)
		}
		for p := n.Parent; p != nil; p = p.Parent {
			out = append(out, p)
		}
		return out
	case axisDescendant, axisDescendantOrSelf:
		var out []*xmldoc.Node
		if ax == axisDescendantOrSelf {
			out = append(out, n)
		}
		var rec func(*xmldoc.Node)
		rec = func(m *xmldoc.Node) {
			for _, c := range m.Children {
				out = append(out, c)
				rec(c)
			}
		}
		rec(n)
		return out
	case axisAttribute:
		out := make([]*xmldoc.Node, 0, len(n.Attrs))
		for _, a := range n.Attrs {
			out = append(out, &xmldoc.Node{
				Kind:   xmldoc.KindAttribute,
				Name:   a.Name,
				Data:   a.Value,
				Parent: n,
			})
		}
		return out
	case axisFollowingSibling, axisPrecedingSibling:
		if n.Parent == nil {
			return nil
		}
		idx := n.Index()
		if idx < 0 {
			return nil
		}
		sibs := n.Parent.Children
		if ax == axisFollowingSibling {
			return sibs[idx+1:]
		}
		// preceding-sibling in reverse document order (nearest first).
		out := make([]*xmldoc.Node, 0, idx)
		for i := idx - 1; i >= 0; i-- {
			out = append(out, sibs[i])
		}
		return out
	}
	return nil
}

// matchTest applies the node test. Unprefixed name tests match local
// names; prefixed tests require the exact prefixed name.
func matchTest(n *xmldoc.Node, t nodeTest, ax axis) bool {
	switch t.kind {
	case testNode:
		return true
	case testText:
		return n.Kind == xmldoc.KindText
	case testComment:
		return n.Kind == xmldoc.KindComment
	case testName:
		principal := xmldoc.KindElement
		if ax == axisAttribute {
			principal = xmldoc.KindAttribute
		}
		if n.Kind != principal {
			return false
		}
		return nameMatches(n, t.name)
	}
	return false
}

func nameMatches(n *xmldoc.Node, test string) bool {
	if test == "*" {
		return true
	}
	if n.Name == test {
		return true
	}
	// Unprefixed test matches any prefix's local name.
	for i := 0; i < len(test); i++ {
		if test[i] == ':' {
			return false // prefixed test: exact only
		}
	}
	return n.LocalName() == test
}
