package xslt

import "repro/internal/xmldoc"

// The Apply budget's limits, for the tests of package xslt_test.
const (
	MaxSteps    = maxSteps
	MaxSelected = maxSelected
	MaxOutput   = maxOutput
)

// Usage applies s to doc and reports what the Apply spent of its
// budget.
func Usage(s *Stylesheet, doc *xmldoc.Node) (steps, selected, written int, err error) {
	ex, err := s.run(doc)
	if ex == nil {
		return 0, 0, 0, err
	}
	return ex.steps, ex.selected, ex.written, err
}
