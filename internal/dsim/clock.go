// Package dsim provides the discrete-event substrate under the
// paper-scale experiments: a Clock abstraction over wall versus
// virtual time, whose one wait mechanism is a Timer its owner re-arms,
// and an event-queue scheduler that advances virtual time only when
// events fire (so a 10k-peer hour-long scenario executes in seconds of
// real time).
//
// Everything in internal/p2p, internal/transport, and internal/sim
// that would otherwise touch the time package goes through a Clock,
// which is what makes a scenario bit-for-bit reproducible from its
// seed: two runs issue identical message sequences and therefore
// identical trace hashes.
package dsim

import "time"

// Clock abstracts time for protocol timeouts and workload pacing.
// Production code runs on Wall; simulations run on a VirtualClock
// whose time advances only through its event queue.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// NewTimer starts a timer that fires once d has elapsed; its owner
	// re-arms it with Reset for every later wait, so a wait allocates
	// nothing once the timer exists. It is the clock's one way to wait.
	// On a VirtualClock the timer fires when virtual time reaches the
	// deadline, which happens only while the event queue is being
	// driven — blocking on it from the driving goroutine deadlocks, so
	// simulation code paths must not wait on a timer (synchronous
	// transports never do; see p2p's Await fast path).
	NewTimer(d time.Duration) Timer
}

// Timer is a one-shot timer its owner keeps and re-arms. One goroutine
// at a time uses it. After Reset or Stop returns, C delivers no tick of
// an earlier arming: a wait never ends on a stale deadline.
type Timer interface {
	// C delivers the clock's time when the timer fires.
	C() <-chan time.Time
	// Reset re-arms the timer to fire once d has elapsed, dropping a
	// pending fire.
	Reset(d time.Duration)
	// Stop drops a pending fire.
	Stop()
}

// Wall is the process wall clock, the default everywhere a Clock is
// accepted.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTimer(d time.Duration) Timer { return wallTimer{time.NewTimer(d)} }

// wallTimer is a *time.Timer. Since Go 1.23 (go.mod's go line is above
// it) Reset and Stop discard a tick the channel holds, which is the
// Timer contract.
type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time   { return w.t.C }
func (w wallTimer) Reset(d time.Duration) { w.t.Reset(d) }
func (w wallTimer) Stop()                 { w.t.Stop() }
