package query

// The matcher as it stood before Match stopped allocating, kept as the
// reference FuzzMatchEquivalence and TestMatchAgreesWithOracle compare
// the live one against: word-level "=" over strings.Fields, "~=" and
// wildcards over strings.ToLower, ordered comparison numeric when both
// sides parse and lexicographic otherwise. The three functions are the
// old code verbatim (renamed); oracleMatch walks a filter tree with
// them.

import (
	"strconv"
	"strings"
)

// oracleMatch evaluates f against attrs the old way.
func oracleMatch(f Filter, attrs Attrs) bool {
	switch f := f.(type) {
	case *Assertion:
		vals := attrs[f.Attr]
		if f.Op == OpEq && f.Value == "*" {
			return len(vals) > 0
		}
		for _, v := range vals {
			if oracleMatchValue(f, v) {
				return true
			}
		}
		return false
	case *And:
		for _, s := range f.Subs {
			if !oracleMatch(s, attrs) {
				return false
			}
		}
		return true
	case *Or:
		for _, s := range f.Subs {
			if oracleMatch(s, attrs) {
				return true
			}
		}
		return false
	case *Not:
		return !oracleMatch(f.Sub, attrs)
	default:
		return true // MatchAll
	}
}

func oracleMatchValue(a *Assertion, v string) bool {
	switch a.Op {
	case OpEq:
		if strings.ContainsRune(a.Value, '*') {
			return oracleWildcardMatch(a.Value, v)
		}
		if strings.EqualFold(v, a.Value) {
			return true
		}
		// Word-level equality: "(title=blue)" matches "Kind of Blue".
		// This mirrors how the metadata index tokenizes values, so a
		// user searching a single word finds multi-word fields.
		if !strings.ContainsAny(a.Value, " \t") {
			for _, w := range strings.Fields(v) {
				if strings.EqualFold(strings.Trim(w, ",.;:!?\"'()"), a.Value) {
					return true
				}
			}
		}
		return false
	case OpContains:
		return strings.Contains(strings.ToLower(v), strings.ToLower(a.Value))
	case OpGe, OpLe, OpGt, OpLt:
		return oracleCompareOrdered(v, a.Value, a.Op)
	default:
		return false
	}
}

// oracleCompareOrdered compares numerically when both operands parse as
// numbers, lexicographically otherwise.
func oracleCompareOrdered(have, want string, op Op) bool {
	hf, herr := strconv.ParseFloat(strings.TrimSpace(have), 64)
	wf, werr := strconv.ParseFloat(strings.TrimSpace(want), 64)
	var cmp int
	if herr == nil && werr == nil {
		switch {
		case hf < wf:
			cmp = -1
		case hf > wf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(have, want)
	}
	switch op {
	case OpGe:
		return cmp >= 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpLt:
		return cmp < 0
	}
	return false
}

// oracleWildcardMatch matches v against a pattern with '*' wildcards,
// case-insensitively.
func oracleWildcardMatch(pattern, v string) bool {
	p := strings.ToLower(pattern)
	s := strings.ToLower(v)
	parts := strings.Split(p, "*")
	if len(parts) == 1 {
		// No '*' at all: plain case-insensitive equality.
		return s == p
	}
	// Leading segment must prefix; trailing must suffix; middles in order.
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	middles := parts[1 : len(parts)-1]
	for _, m := range middles {
		if m == "" {
			continue
		}
		i := strings.Index(s, m)
		if i < 0 {
			return false
		}
		s = s[i+len(m):]
	}
	return strings.HasSuffix(s, last)
}
