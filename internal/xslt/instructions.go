package xslt

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// instruction is one compiled step of a template body.
type instruction interface {
	exec(ex *executor, ctx execCtx, out *xmldoc.Node) error
}

// compileSequence compiles a template body (children of xsl:template
// or of a compound instruction).
func compileSequence(nodes []*xmldoc.Node) ([]instruction, error) {
	var out []instruction
	for _, n := range nodes {
		switch n.Kind {
		case xmldoc.KindText:
			out = append(out, &literalText{text: n.Data})
		case xmldoc.KindComment:
			// Comments in the stylesheet are dropped.
		case xmldoc.KindElement:
			ins, err := compileElement(n)
			if err != nil {
				return nil, err
			}
			out = append(out, ins)
		}
	}
	return out, nil
}

func compileElement(n *xmldoc.Node) (instruction, error) {
	if n.Prefix() != "xsl" {
		return compileLiteralElement(n)
	}
	switch n.LocalName() {
	case "value-of":
		sel, err := requiredExpr(n, "select")
		if err != nil {
			return nil, err
		}
		return &valueOf{sel: sel}, nil
	case "text":
		return &literalText{text: n.Text()}, nil
	case "apply-templates":
		at := &applyTemplatesIns{}
		if s, ok := n.Attr("select"); ok {
			e, err := xpath.Compile(s)
			if err != nil {
				return nil, fmt.Errorf("xslt: apply-templates: %w", err)
			}
			at.sel = e
		}
		var err error
		at.params, err = compileWithParams(n)
		if err != nil {
			return nil, err
		}
		at.sorts, err = compileSorts(n)
		if err != nil {
			return nil, err
		}
		return at, nil
	case "call-template":
		name, ok := n.Attr("name")
		if !ok {
			return nil, errors.New("xslt: call-template without name")
		}
		params, err := compileWithParams(n)
		if err != nil {
			return nil, err
		}
		return &callTemplate{name: name, params: params}, nil
	case "for-each":
		sel, err := requiredExpr(n, "select")
		if err != nil {
			return nil, err
		}
		sorts, err := compileSorts(n)
		if err != nil {
			return nil, err
		}
		body, err := compileSequence(withoutSorts(n.Children))
		if err != nil {
			return nil, err
		}
		return &forEach{sel: sel, body: body, sorts: sorts}, nil
	case "if":
		test, err := requiredExpr(n, "test")
		if err != nil {
			return nil, err
		}
		body, err := compileSequence(n.Children)
		if err != nil {
			return nil, err
		}
		return &ifIns{test: test, body: body}, nil
	case "choose":
		ch := &choose{}
		for _, c := range n.Elements() {
			switch c.LocalName() {
			case "when":
				test, err := requiredExpr(c, "test")
				if err != nil {
					return nil, err
				}
				body, err := compileSequence(c.Children)
				if err != nil {
					return nil, err
				}
				ch.whens = append(ch.whens, whenClause{test: test, body: body})
			case "otherwise":
				body, err := compileSequence(c.Children)
				if err != nil {
					return nil, err
				}
				ch.otherwise = body
			default:
				return nil, fmt.Errorf("xslt: unexpected <%s> in choose", c.Name)
			}
		}
		if len(ch.whens) == 0 {
			return nil, errors.New("xslt: choose without when")
		}
		return ch, nil
	case "element":
		name, ok := n.Attr("name")
		if !ok {
			return nil, errors.New("xslt: element without name")
		}
		avt, err := compileAVT(name)
		if err != nil {
			return nil, err
		}
		body, err := compileSequence(n.Children)
		if err != nil {
			return nil, err
		}
		return &elementIns{name: avt, body: body}, nil
	case "attribute":
		name, ok := n.Attr("name")
		if !ok {
			return nil, errors.New("xslt: attribute without name")
		}
		avt, err := compileAVT(name)
		if err != nil {
			return nil, err
		}
		body, err := compileSequence(n.Children)
		if err != nil {
			return nil, err
		}
		return &attributeIns{name: avt, body: body}, nil
	case "copy-of":
		sel, err := requiredExpr(n, "select")
		if err != nil {
			return nil, err
		}
		return &copyOf{sel: sel}, nil
	case "copy":
		body, err := compileSequence(n.Children)
		if err != nil {
			return nil, err
		}
		return &copyIns{body: body}, nil
	case "variable":
		name, ok := n.Attr("name")
		if !ok {
			return nil, errors.New("xslt: variable without name")
		}
		v := &variableIns{name: name}
		if s, ok := n.Attr("select"); ok {
			e, err := xpath.Compile(s)
			if err != nil {
				return nil, fmt.Errorf("xslt: variable %s: %w", name, err)
			}
			v.sel = e
		} else {
			body, err := compileSequence(n.Children)
			if err != nil {
				return nil, err
			}
			v.body = body
		}
		return v, nil
	case "comment", "processing-instruction", "message":
		// Harmless output-side instructions we do not model.
		return &noop{}, nil
	default:
		return nil, fmt.Errorf("xslt: unsupported instruction xsl:%s", n.LocalName())
	}
}

func compileLiteralElement(n *xmldoc.Node) (instruction, error) {
	le := &literalElement{name: n.Name}
	for _, a := range n.Attrs {
		avt, err := compileAVT(a.Value)
		if err != nil {
			return nil, fmt.Errorf("xslt: attribute %s: %w", a.Name, err)
		}
		le.attrs = append(le.attrs, avtAttr{name: a.Name, value: avt})
	}
	body, err := compileSequence(n.Children)
	if err != nil {
		return nil, err
	}
	le.body = body
	return le, nil
}

func compileWithParams(n *xmldoc.Node) ([]withParam, error) {
	var out []withParam
	for _, c := range n.ChildrenNamed("with-param") {
		name, ok := c.Attr("name")
		if !ok {
			return nil, errors.New("xslt: with-param without name")
		}
		wp := withParam{name: name}
		if s, ok := c.Attr("select"); ok {
			e, err := xpath.Compile(s)
			if err != nil {
				return nil, fmt.Errorf("xslt: with-param %s: %w", name, err)
			}
			wp.sel = e
		} else {
			wp.text = strings.TrimSpace(c.Text())
		}
		out = append(out, wp)
	}
	return out, nil
}

func compileSorts(n *xmldoc.Node) ([]sortSpec, error) {
	var out []sortSpec
	for _, c := range n.ChildrenNamed("sort") {
		sel := c.AttrDefault("select", ".")
		e, err := xpath.Compile(sel)
		if err != nil {
			return nil, fmt.Errorf("xslt: sort: %w", err)
		}
		out = append(out, sortSpec{
			sel:      e,
			numeric:  c.AttrDefault("data-type", "text") == "number",
			reversed: c.AttrDefault("order", "ascending") == "descending",
		})
	}
	return out, nil
}

func withoutSorts(nodes []*xmldoc.Node) []*xmldoc.Node {
	out := make([]*xmldoc.Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Kind == xmldoc.KindElement && n.Prefix() == "xsl" && n.LocalName() == "sort" {
			continue
		}
		out = append(out, n)
	}
	return out
}

func requiredExpr(n *xmldoc.Node, attr string) (*xpath.Expr, error) {
	v, ok := n.Attr(attr)
	if !ok {
		return nil, fmt.Errorf("xslt: %s requires %s attribute", n.Name, attr)
	}
	e, err := xpath.Compile(v)
	if err != nil {
		return nil, fmt.Errorf("xslt: %s: %w", n.Name, err)
	}
	return e, nil
}

// --- attribute value templates ---

// avt is a compiled attribute value template: literal segments
// interleaved with XPath expressions written as {expr}.
type avt struct {
	segments []avtSegment
}

type avtSegment struct {
	literal string
	expr    *xpath.Expr // nil for literal segments
}

func compileAVT(src string) (*avt, error) {
	a := &avt{}
	for len(src) > 0 {
		open := strings.IndexByte(src, '{')
		if open < 0 {
			a.segments = append(a.segments, avtSegment{literal: strings.ReplaceAll(src, "}}", "}")})
			break
		}
		// "{{" escapes a literal brace.
		if open+1 < len(src) && src[open+1] == '{' {
			a.segments = append(a.segments, avtSegment{literal: src[:open+1]})
			src = src[open+2:]
			continue
		}
		if open > 0 {
			a.segments = append(a.segments, avtSegment{literal: strings.ReplaceAll(src[:open], "}}", "}")})
		}
		closeIdx := strings.IndexByte(src[open:], '}')
		if closeIdx < 0 {
			return nil, fmt.Errorf("xslt: unterminated '{' in AVT %q", src)
		}
		exprSrc := src[open+1 : open+closeIdx]
		e, err := xpath.Compile(exprSrc)
		if err != nil {
			return nil, fmt.Errorf("xslt: AVT %q: %w", src, err)
		}
		a.segments = append(a.segments, avtSegment{expr: e})
		src = src[open+closeIdx+1:]
	}
	return a, nil
}

func (a *avt) eval(ex *executor, ctx execCtx) string {
	switch len(a.segments) {
	case 0:
		return ""
	case 1:
		if s := a.segments[0]; s.expr != nil {
			return ex.eval(s.expr, ctx).String()
		}
		return a.segments[0].literal
	}
	var b strings.Builder
	for _, s := range a.segments {
		if s.expr != nil {
			b.WriteString(ex.eval(s.expr, ctx).String())
			continue
		}
		b.WriteString(s.literal)
	}
	return b.String()
}

// --- instruction implementations ---

type noop struct{}

func (*noop) exec(*executor, execCtx, *xmldoc.Node) error { return nil }

type literalText struct{ text string }

func (i *literalText) exec(ex *executor, _ execCtx, out *xmldoc.Node) error {
	ex.text(out, i.text)
	return nil
}

type valueOf struct{ sel *xpath.Expr }

func (i *valueOf) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	if s := ex.eval(i.sel, ctx).String(); s != "" {
		ex.text(out, s)
	}
	return nil
}

type withParam struct {
	name string
	sel  *xpath.Expr
	text string
}

type applyTemplatesIns struct {
	sel    *xpath.Expr
	params []withParam
	sorts  []sortSpec
}

func (i *applyTemplatesIns) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	nodes := ctx.node.Children
	if i.sel != nil {
		var err error
		if nodes, err = ex.selectNodes(i.sel, ctx, "apply-templates"); err != nil {
			return err
		}
	}
	nodes = sortNodes(nodes, i.sorts, ex.envFor(ctx, ex.vars))
	args, mark := ex.pushArgs(ctx, i.params)
	err := ex.applyTemplates(ctx, nodes, out, args)
	ex.args = ex.args[:mark]
	return err
}

type callTemplate struct {
	name   string
	params []withParam
}

func (i *callTemplate) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	t, ok := ex.sheet.named[i.name]
	if !ok {
		return fmt.Errorf("xslt: call-template: no template named %q", i.name)
	}
	if ctx.depth > maxDepth {
		return ErrTooDeep
	}
	args, mark := ex.pushArgs(ctx, i.params)
	sub := ctx
	sub.depth++
	err := ex.invoke(sub, t, out, args)
	ex.args = ex.args[:mark]
	return err
}

type forEach struct {
	sel   *xpath.Expr
	body  []instruction
	sorts []sortSpec
}

func (i *forEach) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	nodes, err := ex.selectNodes(i.sel, ctx, "for-each")
	if err != nil {
		return err
	}
	nodes = sortNodes(nodes, i.sorts, ex.envFor(ctx, ex.vars))
	sub := execCtx{size: len(nodes), depth: ctx.depth + 1}
	for idx, n := range nodes {
		sub.node, sub.pos = n, idx+1
		if err := ex.execAll(sub, i.body, out); err != nil {
			return err
		}
	}
	return nil
}

type ifIns struct {
	test *xpath.Expr
	body []instruction
}

func (i *ifIns) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	if ex.eval(i.test, ctx).Boolean() {
		return ex.execAll(ctx, i.body, out)
	}
	return nil
}

type whenClause struct {
	test *xpath.Expr
	body []instruction
}

type choose struct {
	whens     []whenClause
	otherwise []instruction
}

func (i *choose) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	for _, w := range i.whens {
		if ex.eval(w.test, ctx).Boolean() {
			return ex.execAll(ctx, w.body, out)
		}
	}
	if i.otherwise != nil {
		return ex.execAll(ctx, i.otherwise, out)
	}
	return nil
}

type elementIns struct {
	name *avt
	body []instruction
}

func (i *elementIns) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	return ex.element(ctx, ex.newNode(xmldoc.KindElement, i.name.eval(ex, ctx), ""), i.body, out)
}

type attributeIns struct {
	name *avt
	body []instruction
}

func (i *attributeIns) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	value, err := ex.bodyText(ctx, i.body)
	if err != nil {
		return err
	}
	ex.setAttr(out, i.name.eval(ex, ctx), value)
	return nil
}

type copyOf struct{ sel *xpath.Expr }

func (i *copyOf) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	v := ex.eval(i.sel, ctx)
	if v.Kind != xpath.KindNodeSet {
		ex.text(out, v.String())
		return nil
	}
	ex.selected += len(v.Nodes)
	for _, n := range v.Nodes {
		if n.Kind == xmldoc.KindAttribute {
			ex.setAttr(out, n.Name, n.Data)
			continue
		}
		ex.emit(out, ex.clone(n))
	}
	return nil
}

type copyIns struct{ body []instruction }

func (i *copyIns) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	n := ctx.node
	switch n.Kind {
	case xmldoc.KindElement:
		if n.Name == "#document" {
			// Copying the (virtual) document node copies its content.
			return ex.execAll(ctx, i.body, out)
		}
		return ex.element(ctx, ex.newNode(xmldoc.KindElement, n.Name, ""), i.body, out)
	case xmldoc.KindText:
		ex.text(out, n.Data)
	case xmldoc.KindAttribute:
		ex.setAttr(out, n.Name, n.Data)
	}
	return nil
}

type variableIns struct {
	name string
	sel  *xpath.Expr
	body []instruction
}

func (i *variableIns) exec(ex *executor, ctx execCtx, _ *xmldoc.Node) error {
	var v xpath.Value
	if i.sel != nil {
		v = ex.eval(i.sel, ctx)
	} else {
		s, err := ex.bodyText(ctx, i.body)
		if err != nil {
			return err
		}
		v = xpath.StringValue(s)
	}
	ex.vars = append(ex.vars, xpath.Binding{Name: i.name, Value: v})
	return nil
}

type avtAttr struct {
	name  string
	value *avt
}

type literalElement struct {
	name  string
	attrs []avtAttr
	body  []instruction
}

func (i *literalElement) exec(ex *executor, ctx execCtx, out *xmldoc.Node) error {
	el := ex.newNode(xmldoc.KindElement, i.name, "")
	if len(i.attrs) > 0 {
		el.Attrs = carve(&ex.attrs, len(i.attrs))
		for _, a := range i.attrs {
			ex.setAttr(el, a.name, a.value.eval(ex, ctx))
		}
	}
	return ex.element(ctx, el, i.body, out)
}
