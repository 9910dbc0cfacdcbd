package xslt

import (
	"fmt"
	"strings"

	"repro/internal/xmldoc"
)

// pattern is a compiled XSLT match pattern: a union of path patterns.
// The supported grammar covers what U-P2P stylesheets need:
//
//	"/"            document root
//	"name"         element by (local or prefixed) name
//	"*"            any element
//	"a/b"          b whose parent matches a
//	"a//b"         b with an ancestor matching a
//	"/a/b"         anchored at the root
//	"text()"       text nodes
//	"node()"       any node
//	"@name", "@*"  attributes
//	"p1 | p2"      union
type pattern struct {
	src  string
	alts []pathPattern
}

// pathPattern is one alternative: a chain of step matchers applied
// from the target node upward.
type pathPattern struct {
	steps    []stepPattern // last step matches the node itself
	anchored bool          // leading '/': first step's parent must be the root
	rootOnly bool          // the pattern "/" itself
}

type stepPattern struct {
	test     string // element name, "*", "text()", "node()", "@name", "@*"
	ancestor bool   // true when separated from the previous step by "//"
}

func compilePattern(src string) (*pattern, error) {
	p := &pattern{src: src}
	for _, alt := range strings.Split(src, "|") {
		alt = strings.TrimSpace(alt)
		if alt == "" {
			return nil, fmt.Errorf("xslt: empty pattern alternative in %q", src)
		}
		pp, err := compilePathPattern(alt)
		if err != nil {
			return nil, err
		}
		p.alts = append(p.alts, pp)
	}
	return p, nil
}

func compilePathPattern(src string) (pathPattern, error) {
	if src == "/" {
		return pathPattern{rootOnly: true}, nil
	}
	pp := pathPattern{}
	rest := src
	if strings.HasPrefix(rest, "//") {
		rest = rest[2:]
	} else if strings.HasPrefix(rest, "/") {
		pp.anchored = true
		rest = rest[1:]
	}
	// Split on '/' but treat "//" as marking the following step as an
	// ancestor-separated step.
	var steps []stepPattern
	ancestorNext := false
	for rest != "" {
		var seg string
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg = rest[:i]
			if i+1 < len(rest) && rest[i+1] == '/' {
				rest = rest[i+2:]
				steps = append(steps, stepPattern{test: seg, ancestor: ancestorNext})
				ancestorNext = true
				continue
			}
			rest = rest[i+1:]
		} else {
			seg = rest
			rest = ""
		}
		if seg == "" {
			return pathPattern{}, fmt.Errorf("xslt: empty step in pattern %q", src)
		}
		steps = append(steps, stepPattern{test: seg, ancestor: ancestorNext})
		ancestorNext = false
	}
	if len(steps) == 0 {
		return pathPattern{}, fmt.Errorf("xslt: pattern %q has no steps", src)
	}
	for _, st := range steps {
		if err := checkStepTest(st.test); err != nil {
			return pathPattern{}, fmt.Errorf("xslt: pattern %q: %w", src, err)
		}
	}
	pp.steps = steps
	return pp, nil
}

func checkStepTest(test string) error {
	switch {
	case test == "*", test == "text()", test == "node()", test == "comment()", test == "@*":
		return nil
	case strings.HasPrefix(test, "@"):
		return nil
	case strings.ContainsAny(test, "[]()"):
		return fmt.Errorf("unsupported step %q (predicates not allowed in patterns)", test)
	default:
		return nil
	}
}

// matches reports whether the node matches any alternative.
func (p *pattern) matches(n *xmldoc.Node) bool {
	for _, alt := range p.alts {
		if alt.matches(n) {
			return true
		}
	}
	return false
}

func (pp pathPattern) matches(n *xmldoc.Node) bool {
	if pp.rootOnly {
		// The virtual document node used by the executor.
		return n.Name == "#document" && n.Parent == nil
	}
	return matchSteps(n, pp.steps, pp.anchored)
}

// matchSteps checks the step chain right-to-left from n upward.
func matchSteps(n *xmldoc.Node, steps []stepPattern, anchored bool) bool {
	last := steps[len(steps)-1]
	if !stepTestMatches(n, last.test) {
		return false
	}
	rest := steps[:len(steps)-1]
	cur := parentOf(n)
	if len(rest) == 0 {
		if anchored {
			return cur != nil && cur.Name == "#document" || cur == nil
		}
		return true
	}
	prev := rest[len(rest)-1]
	if last.ancestor {
		// Any ancestor chain may satisfy the remaining steps.
		for a := cur; a != nil; a = parentOf(a) {
			if matchSteps(a, rest, anchored) {
				return true
			}
		}
		return false
	}
	_ = prev
	if cur == nil {
		return false
	}
	return matchSteps(cur, rest, anchored)
}

func parentOf(n *xmldoc.Node) *xmldoc.Node { return n.Parent }

func stepTestMatches(n *xmldoc.Node, test string) bool {
	switch test {
	case "node()":
		return true
	case "text()":
		return n.Kind == xmldoc.KindText
	case "comment()":
		return n.Kind == xmldoc.KindComment
	case "*":
		return n.Kind == xmldoc.KindElement && n.Name != "#document"
	case "@*":
		return n.Kind == xmldoc.KindAttribute
	}
	if strings.HasPrefix(test, "@") {
		return n.Kind == xmldoc.KindAttribute && n.HasName(test[1:])
	}
	return n.Kind == xmldoc.KindElement && n.HasName(test)
}

// defaultPriority follows the XSLT 1.0 rules: name tests 0, */node
// tests -0.5, multi-step patterns +0.5.
func (p *pattern) defaultPriority() float64 {
	best := -1.0
	for _, alt := range p.alts {
		var pr float64
		switch {
		case alt.rootOnly:
			pr = 0.5
		case len(alt.steps) > 1 || alt.anchored:
			pr = 0.5
		default:
			switch alt.steps[0].test {
			case "*", "node()", "@*":
				pr = -0.5
			case "text()", "comment()":
				pr = -0.5
			default:
				pr = 0
			}
		}
		if pr > best {
			best = pr
		}
	}
	return best
}
