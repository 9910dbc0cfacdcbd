//go:build !unix

package transport

// watchReadiness leaves the reader to park in a plain read, holding
// the buffer it borrowed: without a Unix read there is no way to wait
// for readiness alone.
func (fr *frameReader) watchReadiness() {}
