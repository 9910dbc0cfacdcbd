// Package dsim provides the discrete-event substrate under the
// paper-scale experiments: a Clock abstraction over wall versus
// virtual time, and an event-queue scheduler that advances virtual
// time only when events fire (so a 10k-peer hour-long scenario
// executes in seconds of real time).
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
	// After returns a channel that delivers the clock's time once d has
	// elapsed. On a VirtualClock the channel fires when virtual time
	// reaches the deadline, which happens only while the event queue is
	// being driven — blocking on it from the driving goroutine
	// deadlocks, so simulation code paths must not wait on After
	// (synchronous transports never do; see p2p's await fast path).
	After(d time.Duration) <-chan time.Time
}

// Wall is the process wall clock, the default everywhere a Clock is
// accepted.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
