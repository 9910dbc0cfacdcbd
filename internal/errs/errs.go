// Package errs defines structured, package-prefixed error codes for
// the whole reproduction, following the two-level convention of the
// reference systems: a machine-readable "package.name" code rides
// alongside the human-readable message, and lower layers wrap causes
// so a failure carries its full path ("transport: dial ...: ...")
// while remaining matchable by code at any depth.
//
// Codes are program constants, never data: New and Wrap panic on a
// malformed code so an invalid registration fails at init, not in an
// error path at 3 a.m. Valid codes are two or more dot-separated
// segments of lowercase letters, digits, and underscores, each
// starting with a letter ("transport.unknown_peer", "p2p.timeout").
//
// The metrics registry surfaces these codes as an error counter
// family: metrics.Registry.CountError increments errors{code=...}
// using Code to classify any error it is handed.
package errs

import "errors"

// Error is a coded error, optionally wrapping a cause.
type Error struct {
	code  string
	msg   string
	cause error
}

// New mints a coded sentinel error. Sentinels keep identity semantics:
// errors.Is(fmt.Errorf("%w: detail", sentinel), sentinel) holds, as
// with errors.New.
func New(code, msg string) *Error {
	mustValidCode(code)
	return &Error{code: code, msg: msg}
}

// Wrap attaches a code and a context message to a cause. The cause
// stays reachable through errors.Is/As, and Code(err) reports the
// outermost code on the chain.
func Wrap(code string, cause error, msg string) *Error {
	mustValidCode(code)
	return &Error{code: code, msg: msg, cause: cause}
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.cause == nil {
		return e.msg
	}
	return e.msg + ": " + e.cause.Error()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.cause }

// Code classifies any error: the code of the outermost coded error on
// its Unwrap chain, or "" when the chain carries no code.
func Code(err error) string {
	var ce *Error
	if errors.As(err, &ce) {
		return ce.code
	}
	return ""
}

// mustValidCode enforces the "package.name" shape.
func mustValidCode(code string) {
	if !ValidCode(code) {
		panic("errs: invalid error code " + `"` + code + `"`)
	}
}

// ValidCode reports whether code has the required two-level shape:
// dot-separated segments of [a-z0-9_], each starting with a letter,
// at least two segments.
func ValidCode(code string) bool {
	segs := 0
	segLen := 0
	for i := 0; i < len(code); i++ {
		c := code[i]
		switch {
		case c == '.':
			if segLen == 0 {
				return false
			}
			segs++
			segLen = 0
		case c >= 'a' && c <= 'z':
			segLen++
		case (c >= '0' && c <= '9') || c == '_':
			if segLen == 0 {
				return false // segment must start with a letter
			}
			segLen++
		default:
			return false
		}
	}
	return segLen > 0 && segs >= 1
}
