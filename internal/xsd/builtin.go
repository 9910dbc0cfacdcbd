package xsd

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Builtin identifies an XML Schema primitive datatype supported by the
// subset. The zero value means "not a builtin".
type Builtin int

// Supported built-in types: everything used by the paper's community
// schema (Fig. 3), the design-pattern schema (§V) and the generated
// corpora.
const (
	BuiltinString Builtin = iota + 1
	BuiltinAnyURI
	BuiltinBoolean
	BuiltinInteger
	BuiltinInt
	BuiltinLong
	BuiltinDecimal
	BuiltinFloat
	BuiltinDouble
	BuiltinDate
	BuiltinDateTime
	BuiltinDuration
	BuiltinToken
	BuiltinID
)

var builtinNames = map[string]Builtin{
	"string":   BuiltinString,
	"anyURI":   BuiltinAnyURI,
	"boolean":  BuiltinBoolean,
	"integer":  BuiltinInteger,
	"int":      BuiltinInt,
	"long":     BuiltinLong,
	"decimal":  BuiltinDecimal,
	"float":    BuiltinFloat,
	"double":   BuiltinDouble,
	"date":     BuiltinDate,
	"dateTime": BuiltinDateTime,
	"duration": BuiltinDuration,
	"token":    BuiltinToken,
	"ID":       BuiltinID,
}

// String returns the unprefixed type name.
func (b Builtin) String() string {
	for name, v := range builtinNames {
		if v == b {
			return name
		}
	}
	return fmt.Sprintf("builtin(%d)", int(b))
}

// LookupBuiltin resolves a (possibly prefixed) type name to a Builtin.
func LookupBuiltin(name string) (Builtin, bool) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[i+1:]
	}
	b, ok := builtinNames[name]
	return b, ok
}

// CheckValue validates a lexical value against the builtin type.
func (b Builtin) CheckValue(v string) error {
	s := strings.TrimSpace(v)
	switch b {
	case BuiltinString, BuiltinToken, BuiltinID:
		return nil
	case BuiltinAnyURI:
		if s == "" {
			return nil // empty URI permitted (paper's protocol field may be empty)
		}
		if _, err := url.Parse(s); err != nil {
			return fmt.Errorf("invalid anyURI %q: %v", v, err)
		}
		return nil
	case BuiltinBoolean:
		switch s {
		case "true", "false", "0", "1":
			return nil
		}
		return fmt.Errorf("invalid boolean %q", v)
	case BuiltinInteger, BuiltinInt, BuiltinLong:
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			return fmt.Errorf("invalid integer %q", v)
		}
		return nil
	case BuiltinDecimal, BuiltinFloat, BuiltinDouble:
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			return fmt.Errorf("invalid number %q", v)
		}
		return nil
	case BuiltinDate:
		if _, err := time.Parse("2006-01-02", s); err != nil {
			return fmt.Errorf("invalid date %q (want YYYY-MM-DD)", v)
		}
		return nil
	case BuiltinDateTime:
		if _, err := time.Parse(time.RFC3339, s); err != nil {
			if _, err2 := time.Parse("2006-01-02T15:04:05", s); err2 != nil {
				return fmt.Errorf("invalid dateTime %q", v)
			}
		}
		return nil
	case BuiltinDuration:
		if !strings.HasPrefix(s, "P") && !strings.HasPrefix(s, "-P") {
			return fmt.Errorf("invalid duration %q", v)
		}
		return nil
	default:
		return fmt.Errorf("unknown builtin type")
	}
}
