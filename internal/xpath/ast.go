package xpath

// AST node types for the XPath subset. Expressions evaluate to a Value
// (node-set, string, number, or boolean) relative to a context.

type expr interface {
	eval(ctx context) Value
}

// binOp is a binary operator application.
type binOp struct {
	op   string // "or" "and" "=" "!=" "<" "<=" ">" ">=" "+" "-" "*" "div" "mod"
	l, r expr
}

// negExpr is unary minus.
type negExpr struct{ x expr }

// unionExpr is the '|' node-set union.
type unionExpr struct{ l, r expr }

// numberLit is a numeric literal.
type numberLit struct{ v float64 }

// stringLit is a quoted string literal.
type stringLit struct{ v string }

// varRef references a variable binding ($name).
type varRef struct{ name string }

// funcCall invokes a core-library function.
type funcCall struct {
	name string
	fn   xpathFunc
	args []expr
}

// pathExpr is a location path, optionally rooted at a filter
// expression (e.g. "func(..)/child" or "(expr)[1]/x").
type pathExpr struct {
	abs   bool // starts with '/'
	start expr // nil for pure location paths
	steps []*step
}

// filterExpr is a primary expression with predicates.
type filterExpr struct {
	primary expr
	preds   []expr
}

// axis identifies a traversal direction.
type axis int

const (
	axisChild axis = iota + 1
	axisDescendant
	axisDescendantOrSelf
	axisParent
	axisAncestor
	axisAncestorOrSelf
	axisSelf
	axisAttribute
	axisFollowingSibling
	axisPrecedingSibling
)

var axisNames = map[string]axis{
	"child":              axisChild,
	"descendant":         axisDescendant,
	"descendant-or-self": axisDescendantOrSelf,
	"parent":             axisParent,
	"ancestor":           axisAncestor,
	"ancestor-or-self":   axisAncestorOrSelf,
	"self":               axisSelf,
	"attribute":          axisAttribute,
	"following-sibling":  axisFollowingSibling,
	"preceding-sibling":  axisPrecedingSibling,
}

// nodeTest restricts which nodes a step selects.
type nodeTest struct {
	kind testKind
	name string // for testName: "*", "local", or "pfx:local"
}

type testKind int

const (
	testName    testKind = iota + 1 // name or *
	testText                        // text()
	testNode                        // node()
	testComment                     // comment()
)

// step is one location step: axis::test[pred]*.
type step struct {
	ax    axis
	test  nodeTest
	preds []expr
}
