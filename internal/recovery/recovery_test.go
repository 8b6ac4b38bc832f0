package recovery

import (
	"strings"
	"testing"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// harness wires an engine to a fake clock, a collecting spine and recording
// hooks.
type harness struct {
	now      tick.Ticks
	bus      *obs.Bus
	events   *collector
	restarts []string // "P1@40:reason"
	switches []string // schedule names requested
	current  string   // name returned by the ScheduleName hook
	engine   *Engine
}

type collector struct{ events []obs.Event }

func (c *collector) Emit(e obs.Event) { c.events = append(c.events, e) }

func (c *collector) kinds(k obs.Kind) []obs.Event {
	var out []obs.Event
	for _, e := range c.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func newHarness(t *testing.T, p Policy, partitions ...model.PartitionName) *harness {
	t.Helper()
	if len(partitions) == 0 {
		partitions = []model.PartitionName{"P1", "P2"}
	}
	h := &harness{bus: obs.NewBus(), events: &collector{}, current: "nominal"}
	h.bus.Attach(h.events)
	h.engine = NewEngine(p, Options{
		Now: func() tick.Ticks { return h.now },
		Obs: obs.NewEmitter(h.bus, 0),
		Hooks: Hooks{
			Restart: func(p model.PartitionName, mode model.OperatingMode, reason string, occupancy int) {
				h.restarts = append(h.restarts, string(p)+":"+reason)
			},
			SwitchSchedule: func(name string) bool {
				h.switches = append(h.switches, name)
				h.current = name
				return true
			},
			ScheduleName: func() string { return h.current },
		},
		Partitions: partitions,
	})
	return h
}

func TestBudgetGrantsThenDefersWithDoublingBackoff(t *testing.T) {
	h := newHarness(t, Policy{
		Default: Budget{MaxRestarts: 2, Window: 100, BackoffBase: 10, BackoffMax: 35},
	})
	e := h.engine

	// Two restarts fit the budget; occupancy counts up.
	for i, want := range []int{1, 2} {
		h.now = tick.Ticks(i)
		d := e.RequestRestart("P1", model.ModeColdStart)
		if d.Verdict != VerdictAllow || d.Occupancy != want {
			t.Fatalf("grant %d: got %v occupancy %d, want allow/%d", i, d.Verdict, d.Occupancy, want)
		}
	}
	// The third exceeds the budget: deferred by BackoffBase.
	h.now = 2
	d := e.RequestRestart("P1", model.ModeWarmStart)
	if d.Verdict != VerdictDefer || d.ResumeAt != 12 {
		t.Fatalf("over budget: got %v resumeAt %d, want defer/12", d.Verdict, d.ResumeAt)
	}
	if e.StatusOf("P1") != StatusDeferred {
		t.Fatalf("status = %v, want deferred", e.StatusOf("P1"))
	}
	// A second request while deferred reports the same resume time.
	if d2 := e.RequestRestart("P1", model.ModeWarmStart); d2.Verdict != VerdictDefer || d2.ResumeAt != 12 {
		t.Fatalf("while deferred: got %v resumeAt %d", d2.Verdict, d2.ResumeAt)
	}
	// OnTick before the resume time does nothing; at it, the engine executes
	// the restart through the hook with the requested mode preserved.
	e.OnTick(11)
	if len(h.restarts) != 0 {
		t.Fatalf("restart executed early: %v", h.restarts)
	}
	e.OnTick(12)
	if len(h.restarts) != 1 || !strings.HasPrefix(h.restarts[0], "P1:") {
		t.Fatalf("deferred restart not executed: %v", h.restarts)
	}
	// Still over budget immediately after: the next deferral doubles.
	h.now = 13
	d = e.RequestRestart("P1", model.ModeColdStart)
	if d.Verdict != VerdictDefer || d.ResumeAt != 13+20 {
		t.Fatalf("second deferral: got %v resumeAt %d, want defer/33", d.Verdict, d.ResumeAt)
	}
	e.OnTick(33)
	// Third deferral would be 40 but BackoffMax caps it at 35.
	h.now = 34
	d = e.RequestRestart("P1", model.ModeColdStart)
	if d.Verdict != VerdictDefer || d.ResumeAt != 34+35 {
		t.Fatalf("capped deferral: got %v resumeAt %d, want defer/69", d.Verdict, d.ResumeAt)
	}
	// The deferral events carry the delays on the spine.
	defs := h.events.kinds(obs.KindRestartDeferred)
	if len(defs) != 3 || defs[0].Latency != 10 || defs[1].Latency != 20 || defs[2].Latency != 35 {
		t.Fatalf("deferral events = %+v", defs)
	}
	// Once the window slides past the early grants, budget headroom returns
	// and the deferral streak resets.
	e.OnTick(69)
	h.now = 300
	d = e.RequestRestart("P1", model.ModeColdStart)
	if d.Verdict != VerdictAllow || d.Occupancy != 1 {
		t.Fatalf("after window slid: got %v occupancy %d, want allow/1", d.Verdict, d.Occupancy)
	}
}

func TestBudgetIsPerPartition(t *testing.T) {
	h := newHarness(t, Policy{
		Default: Budget{MaxRestarts: 1, Window: 100},
		Budgets: map[model.PartitionName]Budget{
			"P2": {MaxRestarts: 3, Window: 100},
		},
	})
	e := h.engine
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictAllow {
		t.Fatalf("P1 first: %v", d.Verdict)
	}
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictDefer {
		t.Fatalf("P1 second should defer: %v", d.Verdict)
	}
	// P2's override allows three.
	for i := 0; i < 3; i++ {
		if d := e.RequestRestart("P2", model.ModeColdStart); d.Verdict != VerdictAllow {
			t.Fatalf("P2 grant %d: %v", i, d.Verdict)
		}
	}
	if d := e.RequestRestart("P2", model.ModeColdStart); d.Verdict != VerdictDefer {
		t.Fatalf("P2 fourth should defer: %v", d.Verdict)
	}
}

func TestQuarantineHalfOpenProbeAndRecovery(t *testing.T) {
	h := newHarness(t, Policy{
		Quarantine: Quarantine{
			Failures: 3, FailureWindow: 50,
			Cooldown: 100, CooldownMax: 400, ProbeTicks: 30,
		},
	})
	e := h.engine

	// Initial restart grants (no failure history yet).
	h.now = 0
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictAllow {
		t.Fatalf("initial: %v", d.Verdict)
	}
	// Three rapid re-requests are three failed recoveries: the third trips
	// the breaker.
	h.now = 10
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictAllow {
		t.Fatalf("failure 1 should still grant: %v", d.Verdict)
	}
	h.now = 20
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictAllow {
		t.Fatalf("failure 2 should still grant: %v", d.Verdict)
	}
	h.now = 30
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictQuarantine {
		t.Fatalf("failure 3 should quarantine: %v", d.Verdict)
	}
	if e.StatusOf("P1") != StatusQuarantined {
		t.Fatalf("status = %v", e.StatusOf("P1"))
	}
	if got := e.Quarantined(); len(got) != 1 || got[0] != "P1" {
		t.Fatalf("Quarantined() = %v", got)
	}
	// Requests during quarantine stay swallowed.
	h.now = 50
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictQuarantine {
		t.Fatalf("during quarantine: %v", d.Verdict)
	}
	// Cooldown elapses at 130: the engine launches a half-open probe.
	e.OnTick(129)
	if len(h.restarts) != 0 {
		t.Fatalf("probe too early: %v", h.restarts)
	}
	e.OnTick(130)
	if len(h.restarts) != 1 || h.restarts[0] != "P1:half-open probe" {
		t.Fatalf("probe restart = %v", h.restarts)
	}
	// The probe faults at 140: back to quarantine with a doubled cooldown.
	h.now = 140
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictQuarantine {
		t.Fatalf("probe failure: %v", d.Verdict)
	}
	// Second probe at 140+200; it stays healthy for ProbeTicks.
	e.OnTick(340)
	if len(h.restarts) != 2 {
		t.Fatalf("second probe missing: %v", h.restarts)
	}
	e.OnTick(369)
	if e.StatusOf("P1") != StatusHalfOpen {
		t.Fatalf("probe should still be half-open, got %v", e.StatusOf("P1"))
	}
	e.OnTick(370)
	if e.StatusOf("P1") != StatusNormal {
		t.Fatalf("breaker should close, got %v", e.StatusOf("P1"))
	}
	// MTTR spans the whole episode: quarantined at 30, lifted at 370.
	exits := h.events.kinds(obs.KindQuarantineExit)
	if len(exits) != 1 || exits[0].Latency != 340 {
		t.Fatalf("exit events = %+v", exits)
	}
	if enters := h.events.kinds(obs.KindQuarantineEnter); len(enters) != 2 {
		t.Fatalf("expected 2 enter events (initial + failed probe), got %+v", enters)
	}
}

func TestDegradationLadderAndRestore(t *testing.T) {
	h := newHarness(t, Policy{
		Quarantine: Quarantine{
			Failures: 1, FailureWindow: 50, Cooldown: 100, ProbeTicks: 10,
		},
		Degradation: Degradation{
			Ladder:       []Rung{{Quarantined: 2, Schedule: "safe2"}, {Quarantined: 1, Schedule: "safe1"}},
			RestoreAfter: 40,
		},
	})
	e := h.engine

	// Quarantine P1: first rung activates, nominal schedule captured.
	h.now = 0
	e.RequestRestart("P1", model.ModeColdStart)
	h.now = 10
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictQuarantine {
		t.Fatalf("P1: %v", d.Verdict)
	}
	if !e.Degraded() || len(h.switches) != 1 || h.switches[0] != "safe1" {
		t.Fatalf("first rung: degraded=%v switches=%v", e.Degraded(), h.switches)
	}
	// Quarantine P2 too: the deeper rung takes over.
	h.now = 20
	e.RequestRestart("P2", model.ModeColdStart)
	h.now = 30
	if d := e.RequestRestart("P2", model.ModeColdStart); d.Verdict != VerdictQuarantine {
		t.Fatalf("P2: %v", d.Verdict)
	}
	if len(h.switches) != 2 || h.switches[1] != "safe2" {
		t.Fatalf("second rung: switches=%v", h.switches)
	}
	if got := h.events.kinds(obs.KindScheduleDegrade); len(got) != 2 {
		t.Fatalf("degrade events = %+v", got)
	}

	// Both partitions probe (cooldowns end at 110 and 130) and prove
	// healthy; once the last quarantine lifts, the restore countdown runs.
	e.OnTick(110)
	e.OnTick(120) // P1 breaker closes
	e.OnTick(130)
	e.OnTick(140) // P2 breaker closes; module healthy from here
	for tk := tick.Ticks(141); tk < 180; tk++ {
		e.OnTick(tk)
	}
	if !e.Degraded() {
		t.Fatal("restored too early")
	}
	e.OnTick(180)
	if e.Degraded() {
		t.Fatal("nominal schedule not restored after RestoreAfter healthy ticks")
	}
	if last := h.switches[len(h.switches)-1]; last != "nominal" {
		t.Fatalf("restore switched to %q, want nominal", last)
	}
	restores := h.events.kinds(obs.KindScheduleRestore)
	if len(restores) != 1 || restores[0].Latency != 180-10 {
		t.Fatalf("restore events = %+v", restores)
	}
}

func TestNoteModuleErrorActivatesFirstRung(t *testing.T) {
	h := newHarness(t, Policy{
		Degradation: Degradation{
			Ladder:        []Rung{{Quarantined: 1, Schedule: "safe"}},
			OnModuleError: true,
			RestoreAfter:  20,
		},
	})
	e := h.engine
	e.NoteModuleError(100)
	if !e.Degraded() || len(h.switches) != 1 || h.switches[0] != "safe" {
		t.Fatalf("module error: degraded=%v switches=%v", e.Degraded(), h.switches)
	}
	// No quarantined partitions, so the restore countdown starts at once.
	e.OnTick(110)
	if !e.Degraded() {
		t.Fatal("restored too early")
	}
	e.OnTick(130)
	if e.Degraded() {
		t.Fatal("still degraded after RestoreAfter")
	}
}

func TestResetClearsAllState(t *testing.T) {
	h := newHarness(t, Policy{
		Default:    Budget{MaxRestarts: 1, Window: 100},
		Quarantine: Quarantine{Failures: 1, FailureWindow: 50, Cooldown: 100, ProbeTicks: 10},
		Degradation: Degradation{
			Ladder: []Rung{{Quarantined: 1, Schedule: "safe"}}, RestoreAfter: 10,
		},
	})
	e := h.engine
	h.now = 0
	e.RequestRestart("P1", model.ModeColdStart)
	h.now = 10
	e.RequestRestart("P1", model.ModeColdStart) // quarantined + degraded
	e.Reset()
	if e.StatusOf("P1") != StatusNormal || e.Degraded() || len(e.Quarantined()) != 0 {
		t.Fatalf("reset incomplete: status=%v degraded=%v", e.StatusOf("P1"), e.Degraded())
	}
	h.now = 20
	if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictAllow {
		t.Fatalf("after reset: %v", d.Verdict)
	}
}

func TestUnknownPartitionIsAlwaysAllowed(t *testing.T) {
	h := newHarness(t, Policy{Default: Budget{MaxRestarts: 1, Window: 100}})
	if d := h.engine.RequestRestart("P9", model.ModeColdStart); d.Verdict != VerdictAllow {
		t.Fatalf("unknown partition: %v", d.Verdict)
	}
}

func TestPolicyValidate(t *testing.T) {
	parts := []model.PartitionName{"P1", "P2"}
	scheds := []string{"chi1", "chi2"}
	cases := []struct {
		name string
		p    Policy
		want string // substring of the error, "" for valid
	}{
		{"zero policy", Policy{}, ""},
		{"default policy", DefaultPolicy(), ""},
		{"unknown budget partition",
			Policy{Budgets: map[model.PartitionName]Budget{"P9": {MaxRestarts: 1, Window: 1}}},
			"unknown partition"},
		{"negative budget", Policy{Default: Budget{MaxRestarts: -1}}, "negative"},
		{"budget without window", Policy{Default: Budget{MaxRestarts: 1}}, "without a window"},
		{"negative quarantine", Policy{Quarantine: Quarantine{Failures: -1}}, "negative"},
		{"rung threshold zero",
			Policy{Degradation: Degradation{Ladder: []Rung{{Quarantined: 0, Schedule: "chi2"}}}},
			"threshold"},
		{"rung empty schedule",
			Policy{Degradation: Degradation{Ladder: []Rung{{Quarantined: 1}}}},
			"empty schedule"},
		{"rung unknown schedule",
			Policy{Degradation: Degradation{Ladder: []Rung{{Quarantined: 1, Schedule: "chi9"}}}},
			"unknown schedule"},
		{"valid ladder",
			Policy{Degradation: Degradation{Ladder: []Rung{{Quarantined: 1, Schedule: "chi2"}}}},
			""},
	}
	for _, tc := range cases {
		err := tc.p.Validate(parts, scheds)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestStringers(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictAllow: "allow", VerdictDefer: "defer", VerdictQuarantine: "quarantine",
		Verdict(0): "Verdict(0)",
	} {
		if v.String() != want {
			t.Errorf("Verdict %d = %q, want %q", v, v.String(), want)
		}
	}
	for s, want := range map[Status]string{
		StatusNormal: "normal", StatusDeferred: "deferred",
		StatusQuarantined: "quarantined", StatusHalfOpen: "half-open",
		Status(9): "Status(9)",
	} {
		if s.String() != want {
			t.Errorf("Status %d = %q, want %q", s, s.String(), want)
		}
	}
}

// TestTimerPending pins the check Module.Run's quiet-tick fast-forward
// relies on: in every state where OnTick can act without a new request — a
// deferred restart, a quarantine cooldown, a half-open probe, a pending
// nominal-schedule restore — TimerPending is true, so no tick counts as
// quiet; it is false only where OnTick does nothing.
func TestTimerPending(t *testing.T) {
	check := func(t *testing.T, e *Engine, want bool, state string) {
		t.Helper()
		if got := e.TimerPending(); got != want {
			t.Fatalf("%s: TimerPending() = %v, want %v", state, got, want)
		}
	}

	t.Run("deferred", func(t *testing.T) {
		h := newHarness(t, Policy{Default: Budget{MaxRestarts: 1, Window: 100, BackoffBase: 10}})
		e := h.engine
		check(t, e, false, "fresh engine")
		e.RequestRestart("P1", model.ModeColdStart)
		check(t, e, false, "after a granted restart")
		h.now = 5
		if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictDefer {
			t.Fatalf("over budget: %v", d.Verdict)
		}
		check(t, e, true, "restart deferred")
		e.OnTick(14)
		check(t, e, true, "one tick before the resume")
		e.OnTick(15)
		check(t, e, false, "deferred restart resumed")
	})

	t.Run("quarantine_probe_restore", func(t *testing.T) {
		h := newHarness(t, Policy{
			Quarantine: Quarantine{Failures: 1, FailureWindow: 50, Cooldown: 100, ProbeTicks: 10},
			Degradation: Degradation{
				Ladder:       []Rung{{Quarantined: 1, Schedule: "safe"}},
				RestoreAfter: 40,
			},
		})
		e := h.engine
		e.RequestRestart("P1", model.ModeColdStart)
		h.now = 10
		if d := e.RequestRestart("P1", model.ModeColdStart); d.Verdict != VerdictQuarantine {
			t.Fatalf("failed recovery: %v", d.Verdict)
		}
		check(t, e, true, "quarantined")
		e.OnTick(110)
		if e.StatusOf("P1") != StatusHalfOpen {
			t.Fatalf("status = %v, want half-open", e.StatusOf("P1"))
		}
		check(t, e, true, "half-open probe")
		e.OnTick(120)
		if e.StatusOf("P1") != StatusNormal || !e.Degraded() {
			t.Fatalf("status = %v, degraded = %v", e.StatusOf("P1"), e.Degraded())
		}
		check(t, e, true, "nominal-schedule restore pending")
		for tk := tick.Ticks(121); tk <= 160; tk++ {
			e.OnTick(tk)
		}
		if e.Degraded() {
			t.Fatal("nominal schedule not restored")
		}
		check(t, e, false, "restored")
	})

	t.Run("module_error_rung", func(t *testing.T) {
		h := newHarness(t, Policy{
			Degradation: Degradation{
				Ladder:        []Rung{{Quarantined: 1, Schedule: "safe"}},
				OnModuleError: true,
				RestoreAfter:  20,
			},
		})
		e := h.engine
		e.NoteModuleError(0)
		check(t, e, true, "degraded by a module error")
		e.Reset()
		check(t, e, false, "after Reset")
	})
}
