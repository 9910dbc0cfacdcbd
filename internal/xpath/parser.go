package xpath

import (
	"fmt"
	"strconv"
)

// parser implements a recursive-descent parser for the XPath 1.0
// grammar subset described in the package documentation.
type parser struct {
	toks  []token
	pos   int
	src   string
	depth int // parseOr and unary-minus descents open (nest)
}

// maxNesting bounds how deeply an expression nests — parentheses,
// predicates, function arguments, unary minus — as query.Parse bounds
// filters: an expression from a downloaded stylesheet fails to compile
// past it instead of overflowing the parser's stack.
const maxNesting = 32

// nest opens one level of descent, failing past maxNesting; the caller
// closes it with p.depth-- when the descent returns.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return fmt.Errorf("xpath: expression nested deeper than %d in %q", maxNesting, p.src)
	}
	return nil
}

func parse(src string) (expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("xpath: trailing input %s in %q", p.peek(), src)
	}
	return e, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) backup()     { p.pos-- }

// accept consumes the next token if it has the given kind.
func (p *parser) accept(k tokKind) bool {
	if p.peek().kind == k {
		p.pos++
		return true
	}
	return false
}

// acceptName consumes a name token with the exact given text (used for
// word operators "and", "or", "div", "mod").
func (p *parser) acceptName(text string) bool {
	if p.peek().kind == tokName && p.peek().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return token{}, fmt.Errorf("xpath: expected %s, got %s in %q", what, t, p.src)
	}
	return t, nil
}

func (p *parser) parseOr() (expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptName("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binOp{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.acceptName("and") {
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &binOp{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseEquality() (expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokEq):
			op = "="
		case p.accept(tokNeq):
			op = "!="
		default:
			return l, nil
		}
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = &binOp{op: op, l: l, r: r}
	}
}

func (p *parser) parseRelational() (expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokLt):
			op = "<"
		case p.accept(tokLe):
			op = "<="
		case p.accept(tokGt):
			op = ">"
		case p.accept(tokGe):
			op = ">="
		default:
			return l, nil
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &binOp{op: op, l: l, r: r}
	}
}

func (p *parser) parseAdditive() (expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokPlus):
			op = "+"
		case p.accept(tokMinus):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &binOp{op: op, l: l, r: r}
	}
}

func (p *parser) parseMultiplicative() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokStar):
			op = "*"
		case p.acceptName("div"):
			op = "div"
		case p.acceptName("mod"):
			op = "mod"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binOp{op: op, l: l, r: r}
	}
}

func (p *parser) parseUnary() (expr, error) {
	if p.accept(tokMinus) {
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		p.depth--
		if err != nil {
			return nil, err
		}
		return &negExpr{x: x}, nil
	}
	return p.parseUnion()
}

func (p *parser) parseUnion() (expr, error) {
	l, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPipe) {
		r, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		l = &unionExpr{l: l, r: r}
	}
	return l, nil
}

// parsePath parses a PathExpr: either a LocationPath, or a FilterExpr
// optionally followed by /RelativeLocationPath.
func (p *parser) parsePath() (expr, error) {
	t := p.peek()
	switch t.kind {
	case tokSlash, tokDoubleSlash:
		return p.parseLocationPath(true)
	case tokDot, tokDotDot, tokAt, tokStar, tokAxis:
		return p.parseLocationPath(false)
	case tokName:
		// A bare name starts a location path unless it is a function
		// call (name followed by '(' and not a node-type test).
		if p.isFunctionCall() {
			return p.parseFilterPath()
		}
		return p.parseLocationPath(false)
	case tokNumber, tokLiteral, tokDollar, tokLParen:
		return p.parseFilterPath()
	default:
		return nil, fmt.Errorf("xpath: unexpected %s in %q", t, p.src)
	}
}

// isFunctionCall reports whether the upcoming name token begins a
// function call rather than a name test. Node-type tests (text(),
// node(), comment()) are parsed as steps, not calls.
func (p *parser) isFunctionCall() bool {
	t := p.peek()
	if t.kind != tokName {
		return false
	}
	switch t.text {
	case "text", "node", "comment":
		return false
	}
	return p.toks[p.pos+1].kind == tokLParen
}

// parseFilterPath parses FilterExpr ('/' | '//') RelativeLocationPath?.
func (p *parser) parseFilterPath() (expr, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	fe := &filterExpr{primary: prim}
	for p.peek().kind == tokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		fe.preds = append(fe.preds, pred)
	}
	var start expr = fe
	if len(fe.preds) == 0 {
		start = prim
	}
	switch p.peek().kind {
	case tokSlash, tokDoubleSlash:
		pe := &pathExpr{start: start}
		if err := p.parseSteps(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}
	return start, nil
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("xpath: bad number %q: %w", t.text, err)
		}
		return &numberLit{v: f}, nil
	case tokLiteral:
		return &stringLit{v: t.text}, nil
	case tokDollar:
		name, err := p.expect(tokName, "variable name")
		if err != nil {
			return nil, err
		}
		return &varRef{name: name.text}, nil
	case tokLParen:
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case tokName:
		// Function call.
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		fc := &funcCall{name: t.text}
		if !p.accept(tokRParen) {
			for {
				arg, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				fc.args = append(fc.args, arg)
				if p.accept(tokRParen) {
					break
				}
				if _, err := p.expect(tokComma, ","); err != nil {
					return nil, err
				}
			}
		}
		if fc.fn = coreFunctions[fc.name]; fc.fn == nil {
			return nil, fmt.Errorf("xpath: unknown function %q in %q", fc.name, p.src)
		}
		return fc, nil
	default:
		return nil, fmt.Errorf("xpath: unexpected %s in %q", t, p.src)
	}
}

func (p *parser) parseLocationPath(absStart bool) (expr, error) {
	pe := &pathExpr{}
	if absStart {
		pe.abs = true
		t := p.next() // '/' or '//'
		if t.kind == tokDoubleSlash {
			pe.steps = append(pe.steps, &step{ax: axisDescendantOrSelf, test: nodeTest{kind: testNode}})
		} else if isStepStart(p.peek().kind) {
			// "/" alone selects the root; steps optional.
		} else {
			return pe, nil
		}
		if !isStepStart(p.peek().kind) {
			if t.kind == tokDoubleSlash {
				return nil, fmt.Errorf("xpath: '//' must be followed by a step in %q", p.src)
			}
			return pe, nil
		}
	}
	st, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	pe.steps = append(pe.steps, st)
	if err := p.parseSteps(pe); err != nil {
		return nil, err
	}
	return pe, nil
}

// parseSteps consumes ('/' Step | '//' Step)* appending to pe.
func (p *parser) parseSteps(pe *pathExpr) error {
	for {
		switch {
		case p.accept(tokSlash):
		case p.accept(tokDoubleSlash):
			pe.steps = append(pe.steps, &step{ax: axisDescendantOrSelf, test: nodeTest{kind: testNode}})
		default:
			return nil
		}
		st, err := p.parseStep()
		if err != nil {
			return err
		}
		pe.steps = append(pe.steps, st)
	}
}

func isStepStart(k tokKind) bool {
	switch k {
	case tokName, tokStar, tokAt, tokDot, tokDotDot, tokAxis:
		return true
	}
	return false
}

func (p *parser) parseStep() (*step, error) {
	t := p.next()
	st := &step{ax: axisChild}
	switch t.kind {
	case tokDot:
		return &step{ax: axisSelf, test: nodeTest{kind: testNode}}, nil
	case tokDotDot:
		return &step{ax: axisParent, test: nodeTest{kind: testNode}}, nil
	case tokAt:
		st.ax = axisAttribute
		nt, err := p.parseNodeTest()
		if err != nil {
			return nil, err
		}
		st.test = nt
	case tokAxis:
		ax, ok := axisNames[t.text]
		if !ok {
			return nil, fmt.Errorf("xpath: unsupported axis %q in %q", t.text, p.src)
		}
		st.ax = ax
		nt, err := p.parseNodeTest()
		if err != nil {
			return nil, err
		}
		st.test = nt
	case tokName, tokStar:
		p.backup()
		nt, err := p.parseNodeTest()
		if err != nil {
			return nil, err
		}
		st.test = nt
	default:
		return nil, fmt.Errorf("xpath: expected step, got %s in %q", t, p.src)
	}
	for p.peek().kind == tokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		st.preds = append(st.preds, pred)
	}
	return st, nil
}

func (p *parser) parseNodeTest() (nodeTest, error) {
	t := p.next()
	switch t.kind {
	case tokStar:
		return nodeTest{kind: testName, name: "*"}, nil
	case tokName:
		switch t.text {
		case "text", "node", "comment":
			if p.accept(tokLParen) {
				if _, err := p.expect(tokRParen, ")"); err != nil {
					return nodeTest{}, err
				}
				switch t.text {
				case "text":
					return nodeTest{kind: testText}, nil
				case "node":
					return nodeTest{kind: testNode}, nil
				default:
					return nodeTest{kind: testComment}, nil
				}
			}
		}
		return nodeTest{kind: testName, name: t.text}, nil
	default:
		return nodeTest{}, fmt.Errorf("xpath: expected node test, got %s in %q", t, p.src)
	}
}

func (p *parser) parsePredicate() (expr, error) {
	if _, err := p.expect(tokLBracket, "["); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBracket, "]"); err != nil {
		return nil, err
	}
	return e, nil
}
