package pos

import (
	"reflect"
	"testing"

	"air/internal/obs"
	"air/internal/tick"
)

// firstRelease finds by brute force the first instant after now at which
// ClockAnnounce releases a process, announcing on clones so k is untouched;
// horizon stands for "never".
func firstRelease(k *Kernel, now, horizon tick.Ticks) tick.Ticks {
	for t := now + 1; t < horizon; t++ {
		c := k.Clone(k.now, nil, obs.Emitter{})
		if len(c.ClockAnnounce(t)) > 0 {
			return t
		}
	}
	return tick.Infinity
}

// TestNextWake checks NextWake against brute-force ClockAnnounce over a
// delayed start, a periodic release, an object-wait timeout, an unbounded
// wait and a suspended timed wait, which only the suspension overlay keeps
// from waking.
func TestNextWake(t *testing.T) {
	const horizon = 400
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	check := func(state string, want tick.Ticks) {
		t.Helper()
		got := k.NextWake()
		if got != want {
			t.Fatalf("%s: NextWake = %v, want %v", state, got, want)
		}
		if brute := firstRelease(k, clock.now, horizon); brute != want {
			t.Fatalf("%s: first ClockAnnounce release at %v, NextWake says %v", state, brute, want)
		}
	}
	check("empty kernel", tick.Infinity)

	delayed := mustCreate(t, k, aperiodicSpec("delayed", 5))
	periodic := mustCreate(t, k, periodicSpec("periodic", 100, 3))
	waiter := mustCreate(t, k, aperiodicSpec("waiter", 7))
	sleeper := mustCreate(t, k, aperiodicSpec("sleeper", 9))
	if err := k.DelayedStart(delayed, 250); err != nil {
		t.Fatal(err)
	}
	check("delayed start", 250)

	for _, id := range []ProcessID{periodic, waiter, sleeper} {
		if err := k.Start(id); err != nil {
			t.Fatal(err)
		}
	}
	check("ready processes do not wake", 250)

	clock.now = 10
	if err := k.PeriodicWait(periodic); err != nil {
		t.Fatal(err)
	}
	check("periodic wait", 100)

	if err := k.Block(waiter, WaitSemaphore, 60); err != nil {
		t.Fatal(err)
	}
	check("object-wait timeout", 60)

	if err := k.Block(sleeper, WaitEvent, tick.Infinity); err != nil {
		t.Fatal(err)
	}
	check("unbounded wait never wakes", 60)

	if err := k.Suspend(waiter); err != nil {
		t.Fatal(err)
	}
	check("suspended timed wait", 100)

	clock.now = 100
	k.ClockAnnounce(100)
	check("after the periodic release", 250)
}

// assertSteady checks Steady against what Dispatch then does: when Steady
// reports true, a Dispatch on a clone must change no process, the running
// marker or the rotation cursor, and emit nothing.
func assertSteady(t *testing.T, k *Kernel, state string, want bool, wantRunning ProcessID) {
	t.Helper()
	proc, ok := k.Steady()
	if ok != want {
		t.Fatalf("%s: Steady = %v, want %v", state, ok, want)
	}
	if !ok {
		return
	}
	if got := InvalidProcess; proc != nil {
		got = proc.ID
		if got != wantRunning {
			t.Fatalf("%s: Steady process = %d, want %d", state, got, wantRunning)
		}
	} else if wantRunning != InvalidProcess {
		t.Fatalf("%s: Steady returned no process, want %d", state, wantRunning)
	}
	events := &eventLog{}
	bus := obs.NewBus()
	bus.Attach(events)
	before := k.Clone(k.now, nil, obs.Emitter{})
	after := k.Clone(k.now, nil, obs.NewEmitter(bus, 0))
	after.Dispatch()
	for i := range before.procs {
		if !reflect.DeepEqual(*before.procs[i], *after.procs[i]) {
			t.Fatalf("%s: Dispatch changed process %d: %+v → %+v", state, i+1, *before.procs[i], *after.procs[i])
		}
	}
	if before.running != after.running || before.rrCursor != after.rrCursor || len(events.events) != 0 {
		t.Fatalf("%s: Dispatch changed the kernel (running %d→%d, events %d)",
			state, before.running, after.running, len(events.events))
	}
}

type eventLog struct{ events []obs.Event }

func (l *eventLog) Emit(e obs.Event) { l.events = append(l.events, e) }

// TestSteady walks the priority policy through the states Steady must tell
// apart, and checks that round-robin is never steady.
func TestSteady(t *testing.T) {
	clock := &testClock{}
	k, _ := newTestKernel(t, clock)
	assertSteady(t, k, "empty kernel", true, InvalidProcess)

	low := mustCreate(t, k, aperiodicSpec("low", 20))
	hi := mustCreate(t, k, aperiodicSpec("hi", 1))
	if err := k.Start(low); err != nil {
		t.Fatal(err)
	}
	assertSteady(t, k, "heir ready, not yet running", false, 0)
	k.Dispatch()
	assertSteady(t, k, "heir running", true, low)

	if err := k.Start(hi); err != nil {
		t.Fatal(err)
	}
	assertSteady(t, k, "higher-priority heir ready", false, 0)
	k.Dispatch()
	assertSteady(t, k, "preempting heir running", true, hi)

	if err := k.Block(hi, WaitEvent, tick.Infinity); err != nil {
		t.Fatal(err)
	}
	assertSteady(t, k, "running process blocked", false, 0)
	k.Dispatch()
	assertSteady(t, k, "preempted process resumed", true, low)

	k.LockPreemption()
	if err := k.Wake(hi); err != nil {
		t.Fatal(err)
	}
	assertSteady(t, k, "preemption locked", true, low)
	k.UnlockPreemption()
	assertSteady(t, k, "preemption unlocked", false, 0)
	k.Dispatch()

	if err := k.Stop(hi); err != nil {
		t.Fatal(err)
	}
	if err := k.Stop(low); err != nil {
		t.Fatal(err)
	}
	assertSteady(t, k, "all stopped", true, InvalidProcess)

	rr := NewKernel(Options{Partition: "P2", Policy: PolicyRoundRobin, Now: clock.fn()})
	assertSteady(t, rr, "round-robin, empty", false, 0)
	a := mustCreate(t, rr, aperiodicSpec("a", 1))
	if err := rr.Start(a); err != nil {
		t.Fatal(err)
	}
	rr.Dispatch()
	assertSteady(t, rr, "round-robin, one running", false, 0)
}
