package dsim

import (
	"sync"
	"sync/atomic"
	"time"
)

// VirtualClock is a discrete-event scheduler: time is a number that
// jumps from one event to the next, so a scenario spanning hours of
// simulated time costs only the work of its events. Events scheduled
// for the same instant fire in scheduling order (a monotone sequence
// number breaks ties), which keeps runs deterministic.
//
// The clock is driven from one goroutine via Step or RunUntil; event
// callbacks run inline on that goroutine and may schedule further
// events, but must not drive the clock (the drive loop is not
// reentrant).
//
// Internally events are value types in an index-free 4-ary heap —
// scheduling appends into reused slice capacity, so the steady-state
// event path costs zero allocations beyond the caller's closure. Now
// is an atomic read: it is the hottest call in a large simulation
// (every timeout arm and trace span reads it) and must not contend
// with scheduling.
type VirtualClock struct {
	// base is the arbitrary origin; virtual time is base + now nanos.
	base time.Time
	// now is nanoseconds since base, advanced only by the drive loop
	// but read from any goroutine.
	now atomic.Int64

	mu     sync.Mutex
	seq    uint64
	events []vevent
}

var _ Clock = (*VirtualClock)(nil)

// vevent is one pending callback. Value type on purpose: the heap is a
// plain slice, pops recycle slots in place (the slice's spare capacity
// is the free list), and nothing per-event escapes to the heap except
// the caller's own closure.
type vevent struct {
	at  int64 // nanos since base
	seq uint64
	fn  func(now time.Time)
}

// NewVirtualClock returns a clock starting at the epoch. The absolute
// origin is arbitrary; scenarios deal in durations since start.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{base: time.Unix(0, 0).UTC()}
}

func (c *VirtualClock) timeAt(nanos int64) time.Time {
	return c.base.Add(time.Duration(nanos))
}

func (c *VirtualClock) nanosAt(t time.Time) int64 {
	return int64(t.Sub(c.base))
}

// Now implements Clock. Lock-free: a single atomic load.
func (c *VirtualClock) Now() time.Time {
	return c.timeAt(c.now.Load())
}

// Schedule enqueues fn to run once d has elapsed; d <= 0 runs at the
// current instant (but still through the queue, after already-pending
// events for that instant).
func (c *VirtualClock) Schedule(d time.Duration, fn func(now time.Time)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.schedLocked(c.now.Load()+int64(d), fn)
}

func (c *VirtualClock) schedLocked(at int64, fn func(time.Time)) {
	if now := c.now.Load(); at < now {
		at = now
	}
	c.seq++
	c.events = append(c.events, vevent{at: at, seq: c.seq, fn: fn})
	c.siftUp(len(c.events) - 1)
}

// NewTimer implements Clock: the timer delivers the virtual time once
// it reaches now+d. It fires only while the queue is being driven, so
// only goroutines other than the driver may block on it.
func (c *VirtualClock) NewTimer(d time.Duration) Timer {
	t := &virtualTimer{c: c, ch: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

// virtualTimer is a Timer on a VirtualClock. Each arming schedules one
// event that carries the arming's generation; Reset and Stop move gen
// on, so an event of an earlier arming fires as a no-op (it stays
// queued until its instant, like any event). gen and the channel's
// contents change only under the clock's lock.
type virtualTimer struct {
	c   *VirtualClock
	ch  chan time.Time
	gen uint64
}

func (t *virtualTimer) C() <-chan time.Time { return t.ch }

func (t *virtualTimer) Reset(d time.Duration) {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := t.disarmLocked()
	c.schedLocked(c.now.Load()+int64(d), func(now time.Time) { t.fire(gen, now) })
}

func (t *virtualTimer) Stop() {
	t.c.mu.Lock()
	t.disarmLocked()
	t.c.mu.Unlock()
}

// disarmLocked invalidates the pending fire, drops a tick not yet
// received and returns the next arming's generation.
func (t *virtualTimer) disarmLocked() uint64 {
	t.gen++
	select {
	case <-t.ch:
	default:
	}
	return t.gen
}

// fire delivers now if the timer is still armed as gen.
func (t *virtualTimer) fire(gen uint64, now time.Time) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.gen == gen {
		t.ch <- now // buffered, and emptied by every arming
	}
}

// Step fires the earliest pending event, advancing time to it. It
// reports whether an event ran.
func (c *VirtualClock) Step() bool {
	c.mu.Lock()
	if len(c.events) == 0 {
		c.mu.Unlock()
		return false
	}
	fn, at := c.popLocked()
	c.now.Store(at)
	now := c.timeAt(at)
	c.mu.Unlock()
	fn(now)
	return true
}

// RunUntil fires every event due at or before target, then sets the
// clock to target. Events scheduled beyond target stay queued.
func (c *VirtualClock) RunUntil(target time.Time) {
	targetN := c.nanosAt(target)
	for {
		c.mu.Lock()
		if len(c.events) == 0 || c.events[0].at > targetN {
			if targetN > c.now.Load() {
				c.now.Store(targetN)
			}
			c.mu.Unlock()
			return
		}
		fn, at := c.popLocked()
		c.now.Store(at)
		now := c.timeAt(at)
		c.mu.Unlock()
		fn(now)
	}
}

// popLocked removes the heap minimum. The vacated tail slot keeps its
// capacity (the implicit free list) but drops its closure so the GC
// can reclaim captured state promptly.
func (c *VirtualClock) popLocked() (func(time.Time), int64) {
	root := c.events[0]
	n := len(c.events) - 1
	c.events[0] = c.events[n]
	c.events[n].fn = nil
	c.events = c.events[:n]
	if n > 1 {
		c.siftDown(0)
	}
	return root.fn, root.at
}

// 4-ary heap ordered by (at, seq). Shallower than a binary heap —
// fewer cache lines touched per operation on the large queues a
// 10k-peer run builds — with no Push/Pop interface indirection.

func eventLess(a, b *vevent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *VirtualClock) siftUp(i int) {
	ev := c.events[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&ev, &c.events[p]) {
			break
		}
		c.events[i] = c.events[p]
		i = p
	}
	c.events[i] = ev
}

func (c *VirtualClock) siftDown(i int) {
	n := len(c.events)
	ev := c.events[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if eventLess(&c.events[j], &c.events[best]) {
				best = j
			}
		}
		if !eventLess(&c.events[best], &ev) {
			break
		}
		c.events[i] = c.events[best]
		i = best
	}
	c.events[i] = ev
}
