package xpath

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds of the XPath subset.
type tokKind int

const (
	tokEOF  tokKind = iota + 1
	tokName         // NCName or prefixed QName
	tokNumber
	tokLiteral // quoted string
	tokSlash
	tokDoubleSlash
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokDot
	tokDotDot
	tokAt
	tokComma
	tokPipe
	tokStar
	tokEq
	tokNeq
	tokLt
	tokLe
	tokGt
	tokGe
	tokPlus
	tokMinus
	tokDollar
	tokAxis // "axisname::"
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of expression"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes an XPath expression.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the whole input up front; XPath expressions are short.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '/':
		l.pos++
		if l.peekByte() == '/' {
			l.pos++
			return token{tokDoubleSlash, "//", start}, nil
		}
		return token{tokSlash, "/", start}, nil
	case '[':
		l.pos++
		return token{tokLBracket, "[", start}, nil
	case ']':
		l.pos++
		return token{tokRBracket, "]", start}, nil
	case '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case '.':
		l.pos++
		if l.peekByte() == '.' {
			l.pos++
			return token{tokDotDot, "..", start}, nil
		}
		if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos--
			return l.lexNumber()
		}
		return token{tokDot, ".", start}, nil
	case '@':
		l.pos++
		return token{tokAt, "@", start}, nil
	case ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case '|':
		l.pos++
		return token{tokPipe, "|", start}, nil
	case '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case '=':
		l.pos++
		return token{tokEq, "=", start}, nil
	case '!':
		l.pos++
		if l.peekByte() != '=' {
			return token{}, fmt.Errorf("xpath: unexpected '!' at %d in %q", start, l.src)
		}
		l.pos++
		return token{tokNeq, "!=", start}, nil
	case '<':
		l.pos++
		if l.peekByte() == '=' {
			l.pos++
			return token{tokLe, "<=", start}, nil
		}
		return token{tokLt, "<", start}, nil
	case '>':
		l.pos++
		if l.peekByte() == '=' {
			l.pos++
			return token{tokGe, ">=", start}, nil
		}
		return token{tokGt, ">", start}, nil
	case '+':
		l.pos++
		return token{tokPlus, "+", start}, nil
	case '-':
		l.pos++
		return token{tokMinus, "-", start}, nil
	case '$':
		l.pos++
		return token{tokDollar, "$", start}, nil
	case '\'', '"':
		quote := c
		end := strings.IndexByte(l.src[l.pos+1:], quote)
		if end < 0 {
			return token{}, fmt.Errorf("xpath: unterminated string at %d in %q", start, l.src)
		}
		lit := l.src[l.pos+1 : l.pos+1+end]
		l.pos += end + 2
		return token{tokLiteral, lit, start}, nil
	}
	if isDigit(c) {
		return l.lexNumber()
	}
	if isNameStart(rune(c)) {
		return l.lexName()
	}
	return token{}, fmt.Errorf("xpath: unexpected character %q at %d in %q", c, start, l.src)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
		l.pos++
	}
	return token{tokNumber, l.src[start:l.pos], start}, nil
}

func (l *lexer) lexName() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isNameChar(rune(l.src[l.pos])) {
		l.pos++
	}
	// QName may include one prefix colon, but "::" terminates the name
	// and becomes an axis marker.
	if l.pos+1 < len(l.src) && l.src[l.pos] == ':' && l.src[l.pos+1] == ':' {
		name := l.src[start:l.pos]
		l.pos += 2
		return token{tokAxis, name, start}, nil
	}
	if l.pos < len(l.src) && l.src[l.pos] == ':' && l.pos+1 < len(l.src) && isNameStart(rune(l.src[l.pos+1])) {
		l.pos++
		for l.pos < len(l.src) && isNameChar(rune(l.src[l.pos])) {
			l.pos++
		}
	}
	return token{tokName, l.src[start:l.pos], start}, nil
}

// IsName reports whether s reads as one name test in an expression:
// an NCName, optionally prefixed ("xsd:element"), by the same rules the
// lexer reads names with.
func IsName(s string) bool {
	if s == "" || !isNameStart(rune(s[0])) {
		return false
	}
	l := lexer{src: s}
	tok, _ := l.lexName()
	return tok.kind == tokName && l.pos == len(s)
}

func (l *lexer) peekByte() byte {
	if l.pos < len(l.src) {
		return l.src[l.pos]
	}
	return 0
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
