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
	"slices"
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

// Binding binds one variable name to a value.
type Binding struct {
	Name  string
	Value Value
}

// Env carries optional evaluation bindings.
type Env struct {
	// Vars binds $name variable references. It is read as a stack:
	// a name bound more than once resolves to its last binding, so a
	// caller pushes a binding when it is made and truncates the slice
	// when its scope ends.
	Vars []Binding
	// Position and Size set the initial context position()/last();
	// zero values default to 1. XSLT supplies these for nodes being
	// processed inside for-each / apply-templates.
	Position int
	Size     int
}

// Lookup resolves a variable from the top of the stack.
func (e *Env) Lookup(name string) (Value, bool) {
	if e == nil {
		return Value{}, false
	}
	for i := len(e.Vars) - 1; i >= 0; i-- {
		if e.Vars[i].Name == name {
			return e.Vars[i].Value, true
		}
	}
	return Value{}, false
}

// context is the dynamic evaluation context. It is passed by value,
// so moving to another node or position allocates nothing.
type context struct {
	node *xmldoc.Node
	pos  int // 1-based position() within size
	size int
	env  *Env
}

// Eval evaluates the expression with n as the context node.
func (e *Expr) Eval(n *xmldoc.Node) Value {
	return e.EvalEnv(n, nil)
}

// EvalEnv evaluates with variable bindings.
func (e *Expr) EvalEnv(n *xmldoc.Node, env *Env) Value {
	ctx := context{node: n, pos: 1, size: 1, env: env}
	if env != nil {
		if env.Position > 0 {
			ctx.pos = env.Position
		}
		if env.Size > 0 {
			ctx.size = env.Size
		}
	}
	return e.root.eval(ctx)
}

// EvalBool is a convenience for Eval(...).Boolean().
func (e *Expr) EvalBool(n *xmldoc.Node) bool { return e.Eval(n).Boolean() }

// --- expression evaluation ---

func (b *binOp) eval(ctx context) Value {
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

func (n *negExpr) eval(ctx context) Value {
	return NumberValue(-n.x.eval(ctx).Number())
}

func (u *unionExpr) eval(ctx context) Value {
	l := u.l.eval(ctx).Nodes
	r := u.r.eval(ctx).Nodes
	switch {
	case len(r) == 0:
		return NodeSetValue(l)
	case len(l) == 0:
		return NodeSetValue(r)
	}
	return NodeSetValue(docOrderSet(append(append(make([]*xmldoc.Node, 0, len(l)+len(r)), l...), r...)))
}

func (n *numberLit) eval(context) Value { return NumberValue(n.v) }
func (s *stringLit) eval(context) Value { return StringValue(s.v) }

func (v *varRef) eval(ctx context) Value {
	if val, ok := ctx.env.Lookup(v.name); ok {
		return val
	}
	return StringValue("")
}

func (f *funcCall) eval(ctx context) Value {
	return f.fn(ctx, f.args)
}

func (fe *filterExpr) eval(ctx context) Value {
	v := fe.primary.eval(ctx)
	if v.Kind != KindNodeSet || len(fe.preds) == 0 {
		return v
	}
	// The primary's node-set may be a variable's: filter a copy.
	nodes := append([]*xmldoc.Node(nil), v.Nodes...)
	for _, pred := range fe.preds {
		nodes = nodes[:filterNodes(ctx, nodes, pred)]
	}
	return NodeSetValue(nodes)
}

func (pe *pathExpr) eval(ctx context) Value {
	var current []*xmldoc.Node
	steps := pe.steps
	switch {
	case pe.start != nil:
		v := pe.start.eval(ctx)
		if v.Kind != KindNodeSet {
			return NodeSetValue(nil)
		}
		current = v.Nodes
	case pe.abs:
		root := ctx.node.Root()
		if len(steps) == 0 {
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
		current = appendStep(ctx, nil, docNode, steps[0])
		steps = steps[1:]
	case len(steps) == 0:
		return NodeSetValue([]*xmldoc.Node{ctx.node})
	default:
		current = appendStep(ctx, nil, ctx.node, steps[0])
		steps = steps[1:]
	}
	for _, st := range steps {
		if len(current) == 0 {
			break
		}
		current = evalStep(ctx, current, st)
	}
	return NodeSetValue(current)
}

// evalStep applies one location step to each node in the input set.
// From one node the step's matches are the result as they stand; from
// several, the per-node results are merged, de-duplicated and put back
// into document order.
func evalStep(ctx context, input []*xmldoc.Node, st *step) []*xmldoc.Node {
	if len(input) == 1 {
		return appendStep(ctx, nil, input[0], st)
	}
	var out, matched []*xmldoc.Node
	for _, n := range input {
		matched = appendStep(ctx, matched[:0], n, st)
		out = append(out, matched...)
	}
	return docOrderSet(out)
}

// appendStep appends to out the nodes step st selects from n, in
// document order. Predicates count proximity positions along the axis
// (nearest first on a reverse axis) before the matches are reversed
// into document order.
func appendStep(ctx context, out []*xmldoc.Node, n *xmldoc.Node, st *step) []*xmldoc.Node {
	start := len(out)
	out = appendAxis(out, n, st)
	for _, pred := range st.preds {
		out = out[:start+filterNodes(ctx, out[start:], pred)]
	}
	if st.ax == axisAncestor || st.ax == axisAncestorOrSelf || st.ax == axisPrecedingSibling {
		slices.Reverse(out[start:])
	}
	return out
}

// docOrderSet drops repeated nodes from nodes and sorts the rest into
// document order by indexing one walk of the shared root. Synthesized
// attribute nodes order just after their owning element, by attribute
// position.
func docOrderSet(nodes []*xmldoc.Node) []*xmldoc.Node {
	if len(nodes) < 2 {
		return nodes
	}
	seen := make(map[*xmldoc.Node]bool, len(nodes))
	out := nodes[:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	nodes = out
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

// filterNodes keeps, at the front of nodes, the ones the predicate
// accepts, and returns how many it kept. A numeric predicate selects
// that 1-based position.
func filterNodes(ctx context, nodes []*xmldoc.Node, pred expr) int {
	kept := 0
	size := len(nodes)
	for i, n := range nodes {
		ctx.node, ctx.pos, ctx.size = n, i+1, size
		v := pred.eval(ctx)
		if v.Kind == KindNumber && int(v.Num) == i+1 || v.Kind != KindNumber && v.Boolean() {
			nodes[kept] = n
			kept++
		}
	}
	return kept
}

// appendAxis appends to out the nodes along st's axis from n that pass
// its node test, in axis order.
func appendAxis(out []*xmldoc.Node, n *xmldoc.Node, st *step) []*xmldoc.Node {
	switch st.ax {
	case axisChild:
		for _, c := range n.Children {
			if matchTest(c, st.test, st.ax) {
				out = append(out, c)
			}
		}
	case axisSelf:
		if matchTest(n, st.test, st.ax) {
			out = append(out, n)
		}
	case axisParent:
		if n.Parent != nil && matchTest(n.Parent, st.test, st.ax) {
			out = append(out, n.Parent)
		}
	case axisAncestor, axisAncestorOrSelf:
		p := n.Parent
		if st.ax == axisAncestorOrSelf {
			p = n
		}
		for ; p != nil; p = p.Parent {
			if matchTest(p, st.test, st.ax) {
				out = append(out, p)
			}
		}
	case axisDescendant, axisDescendantOrSelf:
		if st.ax == axisDescendantOrSelf && matchTest(n, st.test, st.ax) {
			out = append(out, n)
		}
		out = appendDescendants(out, n, st)
	case axisAttribute:
		for _, a := range n.Attrs {
			// Test the name before synthesizing the node: only matches
			// cost an allocation.
			probe := xmldoc.Node{Kind: xmldoc.KindAttribute, Name: a.Name}
			if matchTest(&probe, st.test, st.ax) {
				out = append(out, &xmldoc.Node{Kind: xmldoc.KindAttribute, Name: a.Name, Data: a.Value, Parent: n})
			}
		}
	case axisFollowingSibling, axisPrecedingSibling:
		idx := n.Index()
		if idx < 0 {
			break
		}
		sibs := n.Parent.Children
		if st.ax == axisFollowingSibling {
			for _, c := range sibs[idx+1:] {
				if matchTest(c, st.test, st.ax) {
					out = append(out, c)
				}
			}
			break
		}
		// preceding-sibling in reverse document order (nearest first).
		for i := idx - 1; i >= 0; i-- {
			if matchTest(sibs[i], st.test, st.ax) {
				out = append(out, sibs[i])
			}
		}
	}
	return out
}

// appendDescendants appends n's descendants that pass st's node test,
// in document order.
func appendDescendants(out []*xmldoc.Node, n *xmldoc.Node, st *step) []*xmldoc.Node {
	for _, c := range n.Children {
		if matchTest(c, st.test, st.ax) {
			out = append(out, c)
		}
		out = appendDescendants(out, c, st)
	}
	return out
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
	return test == "*" || n.HasName(test)
}
