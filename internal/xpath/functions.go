package xpath

import (
	"math"
	"strings"

	"repro/internal/xmldoc"
)

// xpathFunc implements one core-library function.
type xpathFunc func(ctx context, args []expr) Value

// coreFunctions is the XPath 1.0 core function library subset. The
// parser validates function names against this table at compile time.
var coreFunctions map[string]xpathFunc

func init() {
	// Populated in init because entries reference helper closures; the
	// table is written once and read-only afterwards.
	coreFunctions = map[string]xpathFunc{
		"last":             fnLast,
		"position":         fnPosition,
		"count":            fnCount,
		"name":             fnName,
		"local-name":       fnLocalName,
		"string":           fnString,
		"concat":           fnConcat,
		"starts-with":      fnStartsWith,
		"contains":         fnContains,
		"substring-before": fnSubstringBefore,
		"substring-after":  fnSubstringAfter,
		"substring":        fnSubstring,
		"string-length":    fnStringLength,
		"normalize-space":  fnNormalizeSpace,
		"translate":        fnTranslate,
		"boolean":          fnBoolean,
		"not":              fnNot,
		"true":             fnTrue,
		"false":            fnFalse,
		"number":           fnNumber,
		"sum":              fnSum,
		"floor":            fnFloor,
		"ceiling":          fnCeiling,
		"round":            fnRound,
	}
}

// argString evaluates args[i] as a string, defaulting to the context
// node's string-value when the argument is absent.
func argString(ctx context, args []expr, i int) string {
	if i >= len(args) {
		return nodeStringValue(ctx.node)
	}
	return args[i].eval(ctx).String()
}

func fnLast(ctx context, _ []expr) Value     { return NumberValue(float64(ctx.size)) }
func fnPosition(ctx context, _ []expr) Value { return NumberValue(float64(ctx.pos)) }

func fnCount(ctx context, args []expr) Value {
	if len(args) == 0 {
		return NumberValue(0)
	}
	v := args[0].eval(ctx)
	if v.Kind != KindNodeSet {
		return NumberValue(0)
	}
	return NumberValue(float64(len(v.Nodes)))
}

func fnName(ctx context, args []expr) Value {
	n := argNode(ctx, args)
	if n == nil {
		return StringValue("")
	}
	return StringValue(n.Name)
}

func fnLocalName(ctx context, args []expr) Value {
	n := argNode(ctx, args)
	if n == nil {
		return StringValue("")
	}
	return StringValue(n.LocalName())
}

func argNode(ctx context, args []expr) *xmldoc.Node {
	if len(args) == 0 {
		return ctx.node
	}
	v := args[0].eval(ctx)
	if v.Kind != KindNodeSet || len(v.Nodes) == 0 {
		return nil
	}
	return v.Nodes[0]
}

func fnString(ctx context, args []expr) Value {
	return StringValue(argString(ctx, args, 0))
}

func fnConcat(ctx context, args []expr) Value {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(a.eval(ctx).String())
	}
	return StringValue(b.String())
}

func fnStartsWith(ctx context, args []expr) Value {
	return BooleanValue(strings.HasPrefix(argString(ctx, args, 0), argString(ctx, args, 1)))
}

func fnContains(ctx context, args []expr) Value {
	return BooleanValue(strings.Contains(argString(ctx, args, 0), argString(ctx, args, 1)))
}

func fnSubstringBefore(ctx context, args []expr) Value {
	s, sep := argString(ctx, args, 0), argString(ctx, args, 1)
	if i := strings.Index(s, sep); i >= 0 {
		return StringValue(s[:i])
	}
	return StringValue("")
}

func fnSubstringAfter(ctx context, args []expr) Value {
	s, sep := argString(ctx, args, 0), argString(ctx, args, 1)
	if i := strings.Index(s, sep); i >= 0 {
		return StringValue(s[i+len(sep):])
	}
	return StringValue("")
}

// fnSubstring implements XPath substring() with its 1-based, rounded
// index semantics.
func fnSubstring(ctx context, args []expr) Value {
	s := []rune(argString(ctx, args, 0))
	if len(args) < 2 {
		return StringValue(string(s))
	}
	start := math.Round(args[1].eval(ctx).Number())
	end := math.Inf(1)
	if len(args) >= 3 {
		end = start + math.Round(args[2].eval(ctx).Number())
	}
	if math.IsNaN(start) || math.IsNaN(end) {
		return StringValue("")
	}
	var b strings.Builder
	for i, r := range s {
		p := float64(i + 1)
		if p >= start && p < end {
			b.WriteRune(r)
		}
	}
	return StringValue(b.String())
}

func fnStringLength(ctx context, args []expr) Value {
	return NumberValue(float64(len([]rune(argString(ctx, args, 0)))))
}

func fnNormalizeSpace(ctx context, args []expr) Value {
	return StringValue(NormalizeSpace(argString(ctx, args, 0)))
}

// NormalizeSpace is XPath's normalize-space(): it strips leading and
// trailing whitespace and collapses every inner run of it into one
// space. Whitespace is XML's: space, tab, CR and LF, nothing else. A
// string already in that form comes back as it is, without a copy.
func NormalizeSpace(s string) string {
	normal := true
	for i := 0; i < len(s) && normal; i++ {
		if isSpace(s[i]) {
			normal = s[i] == ' ' && i > 0 && i < len(s)-1 && !isSpace(s[i+1])
		}
	}
	if normal {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	gap := false
	for i := 0; i < len(s); i++ {
		if isSpace(s[i]) {
			gap = b.Len() > 0
			continue
		}
		if gap {
			b.WriteByte(' ')
			gap = false
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func fnTranslate(ctx context, args []expr) Value {
	s := argString(ctx, args, 0)
	from := []rune(argString(ctx, args, 1))
	to := []rune(argString(ctx, args, 2))
	mapping := make(map[rune]rune, len(from))
	drop := make(map[rune]bool)
	for i, f := range from {
		if _, dup := mapping[f]; dup || drop[f] {
			continue
		}
		if i < len(to) {
			mapping[f] = to[i]
		} else {
			drop[f] = true
		}
	}
	var b strings.Builder
	for _, r := range s {
		if drop[r] {
			continue
		}
		if m, ok := mapping[r]; ok {
			b.WriteRune(m)
			continue
		}
		b.WriteRune(r)
	}
	return StringValue(b.String())
}

func fnBoolean(ctx context, args []expr) Value {
	if len(args) == 0 {
		return BooleanValue(false)
	}
	return BooleanValue(args[0].eval(ctx).Boolean())
}

func fnNot(ctx context, args []expr) Value {
	if len(args) == 0 {
		return BooleanValue(true)
	}
	return BooleanValue(!args[0].eval(ctx).Boolean())
}

func fnTrue(context, []expr) Value  { return BooleanValue(true) }
func fnFalse(context, []expr) Value { return BooleanValue(false) }

func fnNumber(ctx context, args []expr) Value {
	if len(args) == 0 {
		return NumberValue(parseNumber(nodeStringValue(ctx.node)))
	}
	return NumberValue(args[0].eval(ctx).Number())
}

func fnSum(ctx context, args []expr) Value {
	if len(args) == 0 {
		return NumberValue(0)
	}
	v := args[0].eval(ctx)
	if v.Kind != KindNodeSet {
		return NumberValue(math.NaN())
	}
	total := 0.0
	for _, n := range v.Nodes {
		total += parseNumber(nodeStringValue(n))
	}
	return NumberValue(total)
}

func fnFloor(ctx context, args []expr) Value {
	if len(args) == 0 {
		return NumberValue(math.NaN())
	}
	return NumberValue(math.Floor(args[0].eval(ctx).Number()))
}

func fnCeiling(ctx context, args []expr) Value {
	if len(args) == 0 {
		return NumberValue(math.NaN())
	}
	return NumberValue(math.Ceil(args[0].eval(ctx).Number()))
}

func fnRound(ctx context, args []expr) Value {
	if len(args) == 0 {
		return NumberValue(math.NaN())
	}
	f := args[0].eval(ctx).Number()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return NumberValue(f)
	}
	// XPath rounds half toward +infinity.
	return NumberValue(math.Floor(f + 0.5))
}
