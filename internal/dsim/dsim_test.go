package dsim

import (
	"runtime"
	"testing"
	"time"
)

// drain fires every pending event, including ones scheduled by earlier
// events, in time order.
func drain(c *VirtualClock) {
	for c.Step() {
	}
}

func TestVirtualClockOrdering(t *testing.T) {
	c := NewVirtualClock()
	var order []int
	c.Schedule(30*time.Millisecond, func(time.Time) { order = append(order, 3) })
	c.Schedule(10*time.Millisecond, func(time.Time) { order = append(order, 1) })
	c.Schedule(10*time.Millisecond, func(time.Time) { order = append(order, 2) }) // same instant: FIFO
	drain(c)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if got := c.Now().Sub(time.Unix(0, 0).UTC()); got != 30*time.Millisecond {
		t.Errorf("now = %v", got)
	}
}

func TestVirtualClockEventsScheduleEvents(t *testing.T) {
	c := NewVirtualClock()
	fired := 0
	var chain func(time.Time)
	chain = func(time.Time) {
		fired++
		if fired < 5 {
			c.Schedule(time.Second, chain)
		}
	}
	c.Schedule(time.Second, chain)
	drain(c)
	if fired != 5 {
		t.Errorf("fired = %d", fired)
	}
	if got := c.Now().Sub(time.Unix(0, 0).UTC()); got != 5*time.Second {
		t.Errorf("now = %v", got)
	}
}

func TestVirtualClockRunUntil(t *testing.T) {
	c := NewVirtualClock()
	fired := 0
	c.Schedule(time.Second, func(time.Time) { fired++ })
	c.Schedule(3*time.Second, func(time.Time) { fired++ })
	c.RunUntil(c.Now().Add(2 * time.Second))
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	// RunUntil advances even with no events due.
	if got := c.Now().Sub(time.Unix(0, 0).UTC()); got != 2*time.Second {
		t.Errorf("now = %v", got)
	}
	if !c.Step() || fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if c.Step() {
		t.Error("an event is still queued")
	}
}

func TestVirtualClockTimer(t *testing.T) {
	c := NewVirtualClock()
	tm := c.NewTimer(time.Minute)
	select {
	case <-tm.C():
		t.Fatal("the timer fired before time advanced")
	default:
	}
	c.RunUntil(c.Now().Add(time.Minute))
	select {
	case <-tm.C():
	default:
		t.Fatal("the timer did not fire at its deadline")
	}
}

// TestVirtualClockTimerResetStopDropFire: Reset and Stop drop a pending
// fire, and Reset also a tick the channel already holds, so a re-armed
// timer fires only at its new deadline.
func TestVirtualClockTimerResetStopDropFire(t *testing.T) {
	c := NewVirtualClock()
	fired := func(tm Timer) bool {
		select {
		case <-tm.C():
			return true
		default:
			return false
		}
	}
	tm := c.NewTimer(time.Second)
	tm.Reset(3 * time.Second)
	c.RunUntil(c.Now().Add(2 * time.Second))
	if fired(tm) {
		t.Fatal("Reset left the first arming's fire pending")
	}
	c.RunUntil(c.Now().Add(time.Second))
	if !fired(tm) {
		t.Fatal("the re-armed timer did not fire at its deadline")
	}
	tm.Reset(time.Second)
	tm.Stop()
	c.RunUntil(c.Now().Add(time.Minute))
	if fired(tm) {
		t.Fatal("Stop left a fire pending")
	}
	// A tick nobody received is dropped by the next arming.
	tm.Reset(time.Second)
	c.RunUntil(c.Now().Add(time.Second))
	tm.Reset(time.Second)
	if fired(tm) {
		t.Fatal("Reset kept the previous arming's tick")
	}
	c.RunUntil(c.Now().Add(time.Second))
	if !fired(tm) {
		t.Fatal("the timer did not fire after a Reset over an unread tick")
	}
}

// TestVirtualClockTimerAcrossGoroutines: an awaiter re-arms and waits
// on a timer while another goroutine drives the clock, the way a node
// on an asynchronous transport waits on a virtual clock.
func TestVirtualClockTimerAcrossGoroutines(t *testing.T) {
	c := NewVirtualClock()
	tm := c.NewTimer(time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-tm.C()
		for i := 0; i < 200; i++ {
			tm.Reset(time.Duration(i%3+1) * time.Millisecond)
			<-tm.C()
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if !c.Step() {
			runtime.Gosched()
		}
	}
}

func TestWallClock(t *testing.T) {
	before := time.Now()
	if Wall.Now().Before(before) {
		t.Error("wall clock behind")
	}
	tm := Wall.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Error("the wall timer never fired")
	}
	// A tick nobody received is dropped by the next arming.
	tm.Reset(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	tm.Reset(time.Hour)
	select {
	case <-tm.C():
		t.Error("Reset kept the previous arming's tick")
	default:
	}
	tm.Stop()
}

func TestVirtualClockHeapStress(t *testing.T) {
	// Thousands of events with colliding instants, scheduled in a
	// deterministic pseudo-random order, must fire in (time, FIFO)
	// order through the 4-ary heap.
	c := NewVirtualClock()
	const n = 5000
	type key struct {
		at  time.Duration
		seq int
	}
	var fired []key
	perInstant := map[time.Duration]int{}
	state := uint64(12345)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		at := time.Duration(state%97) * time.Millisecond
		seq := perInstant[at]
		perInstant[at]++
		k := key{at, seq}
		c.Schedule(at, func(time.Time) { fired = append(fired, k) })
	}
	drain(c)
	if len(fired) != n {
		t.Fatalf("fired %d of %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq != a.seq+1) {
			t.Fatalf("out of order at %d: %v then %v", i, a, b)
		}
	}
}

func TestVirtualClockNowConcurrent(t *testing.T) {
	// Now() is documented lock-free and safe to call from any
	// goroutine while the drive loop runs; the race detector checks
	// the claim, and observed time must be monotone.
	c := NewVirtualClock()
	for i := 0; i < 1000; i++ {
		c.Schedule(time.Duration(i)*time.Millisecond, func(time.Time) {})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := c.Now()
		for i := 0; i < 10000; i++ {
			now := c.Now()
			if now.Before(last) {
				t.Error("Now went backward")
				return
			}
			last = now
		}
	}()
	drain(c)
	<-done
}

func TestVirtualClockScheduleAtPastClamps(t *testing.T) {
	c := NewVirtualClock()
	c.RunUntil(c.Now().Add(time.Second))
	var at time.Time
	c.Schedule(-time.Second, func(now time.Time) { at = now })
	drain(c)
	if got := at.Sub(time.Unix(0, 0).UTC()); got != time.Second {
		t.Errorf("past event fired at +%v, want +1s", got)
	}
}

// TestVirtualClockSteadyStateAllocs pins the event engine's free-list
// behaviour: once the heap slice has grown, a schedule/step cycle
// allocates only the caller's closure (here none — the func literal
// captures nothing and is a static value).
func TestVirtualClockSteadyStateAllocs(t *testing.T) {
	c := NewVirtualClock()
	fn := func(time.Time) {}
	for i := 0; i < 64; i++ {
		c.Schedule(time.Millisecond, fn)
	}
	drain(c)
	if n := testing.AllocsPerRun(200, func() {
		c.Schedule(time.Millisecond, fn)
		c.Step()
	}); n > 0 {
		t.Fatalf("schedule+step allocs/op = %v, want 0", n)
	}
}
