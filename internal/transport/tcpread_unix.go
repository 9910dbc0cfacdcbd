//go:build unix

package transport

import (
	"io"
	"os"
	"syscall"
)

// watchReadiness lets a reader on a socket park without a buffer.
func (fr *frameReader) watchReadiness() {
	sc, ok := fr.r.(syscall.Conn)
	if !ok {
		return
	}
	if raw, err := sc.SyscallConn(); err == nil {
		fr.raw, fr.ready = raw, fr.readReady
	}
}

// readReady is raw.Read's callback: it borrows a buffer and makes one
// read of whatever has arrived, or hands the buffer straight back and
// asks to wait when nothing has.
func (fr *frameReader) readReady(fd uintptr) bool {
	fr.borrow()
	buf := *fr.bp
	for {
		n, err := syscall.Read(int(fd), buf)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			fr.release()
			return false
		case err != nil:
			fr.release()
			fr.rerr = os.NewSyscallError("read", err)
		case n == 0:
			fr.release()
			fr.rerr = io.EOF
		default:
			fr.end = n
		}
		return true
	}
}
