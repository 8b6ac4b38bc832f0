package core

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"air/internal/apex"
	"air/internal/hm"
	"air/internal/model"
)

// liveRuntimes counts the module's runtime entries: one per live process
// goroutine.
func liveRuntimes(m *Module) int {
	n := 0
	for _, name := range m.order {
		n += len(m.partitions[name].runtimes)
	}
	return n
}

// waitGoroutines waits until runtime.NumGoroutine() reads want. A killed
// process goroutine acks the kernel just before it returns, so its exit can
// trail the kill by a scheduling round.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines returns runtime.NumGoroutine() once it holds still:
// goroutines that earlier tests killed may still be on their way out.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
}

// victimState is the state cell of the victim process in TestKillPathsUnwind.
type victimState struct{ entered bool }

// TestKillPathsUnwind drives every way the kernel ends a process goroutine
// from outside the process. Each must run the body's defers, leave no
// runtime entry without a goroutine behind it, and let the goroutine exit;
// a restarted process must start over with a fresh state cell.
func TestKillPathsUnwind(t *testing.T) {
	victimSpec := model.TaskSpec{Name: "victim", Period: 100, Deadline: 20,
		BasePriority: 5, WCET: 1, Periodic: true}
	cases := []struct {
		name    string
		action  hm.Action   // on the victim's deadline miss (tick 20)
		delayed bool        // DELAYED_START far beyond the run
		ctl     ProcessBody // a higher-priority process in partition A
		kill    func(t *testing.T, m *Module, pt *Partition)
		// restarts: the victim comes back and is dispatched again.
		restarts bool
	}{
		{name: "StopProcess", ctl: func(sv *Services) {
			sv.TimedWait(10)
			sv.StopProcess("victim")
		}},
		{name: "HMStopProcess", action: hm.ActionStopProcess},
		{name: "HMRestartProcess", action: hm.ActionRestartProcess, restarts: true},
		{name: "ColdRestart", restarts: true, kill: func(t *testing.T, m *Module, pt *Partition) {
			pt.restart(model.ModeColdStart)
		}},
		{name: "WarmRestart", restarts: true, kill: func(t *testing.T, m *Module, pt *Partition) {
			pt.restart(model.ModeWarmStart)
		}},
		{name: "SetPartitionModeIdle", ctl: func(sv *Services) {
			sv.TimedWait(10)
			sv.SetPartitionMode(model.ModeIdle)
		}},
		{name: "NeverGrantedDelayedStart", delayed: true, kill: func(t *testing.T, m *Module, pt *Partition) {
			if rc := pt.KernelServices().StopProcess("victim"); rc != apex.NoError {
				t.Errorf("StopProcess = %v", rc)
			}
		}},
		{name: "ModuleShutdown", kill: func(t *testing.T, m *Module, pt *Partition) {
			m.Shutdown()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := settledGoroutines()
			var news, entries, unwound int
			var reused bool
			victim := ForkableBody{
				New:   func() any { news++; return new(victimState) },
				Clone: func(s any) any { cp := *s.(*victimState); return &cp },
				Run: func(sv *Services, s any) {
					st := s.(*victimState)
					reused = reused || st.entered
					st.entered = true
					entries++
					defer func() {
						unwound++
						sv.Compute(1) // blocks again while killed: killed again
					}()
					sv.Compute(1000) // overruns the deadline at tick 20
				},
			}
			action := c.action
			if action == 0 {
				action = hm.ActionIgnore
			}
			m := startModule(t, Config{
				System: twoPartitionSystem(),
				Partitions: []PartitionConfig{
					{Name: "A", Init: normalInit(func(sv *Services) {
						sv.CreateForkableProcess(victimSpec, victim)
						if c.delayed {
							sv.DelayedStartProcess("victim", 500)
						} else {
							sv.StartProcess("victim")
						}
						if c.ctl != nil {
							sv.CreateProcess(aperiodicTask("ctl", 1), c.ctl)
							sv.StartProcess("ctl")
						}
					}), HMProcessTable: hm.Table{hm.ErrDeadlineMissed: hm.Rule{Action: action}}},
					{Name: "B", Init: normalInit(nil)},
				},
			})
			pt, _ := m.Partition("A")
			if err := m.Run(15); err != nil {
				t.Fatal(err)
			}
			if c.kill != nil {
				c.kill(t, m, pt)
			}
			if err := m.Run(30 - m.Now()); err != nil && !errors.Is(err, ErrHalted) {
				t.Fatal(err)
			}

			wantEntries, wantUnwound := 1, 1
			switch {
			case c.delayed:
				wantEntries, wantUnwound = 0, 0 // the body never started
			case c.restarts:
				wantEntries = 2
			}
			if entries != wantEntries || unwound != wantUnwound {
				t.Errorf("body entries %d, deferred unwinds %d; want %d, %d",
					entries, unwound, wantEntries, wantUnwound)
			}
			if c.restarts && (news != 2 || reused) {
				t.Errorf("restart: New called %d times, cell reused %v; want 2 fresh cells", news, reused)
			}
			proc, err := pt.kernel.Lookup("victim")
			if err != nil {
				t.Fatal(err)
			}
			if _, live := pt.runtimes[proc.ID]; live != c.restarts {
				t.Errorf("victim runtime entry present = %v, want %v", live, c.restarts)
			}
			waitGoroutines(t, base+liveRuntimes(m))
			m.Shutdown()
			waitGoroutines(t, base)
			if unwound != entries {
				t.Errorf("after Shutdown: %d entries but %d deferred unwinds", entries, unwound)
			}
		})
	}
}

// TestKillAllOrderDeterministic: a partition restart unwinds the killed
// bodies in process-table order, every time, so defers that call services
// cannot make two runs of the same module differ.
func TestKillAllOrderDeterministic(t *testing.T) {
	names := []string{"d", "c", "b", "a"} // creation order, not name order
	var unwound []string
	entered := 0
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				for _, name := range names {
					sv.CreateProcess(aperiodicTask(name, 5), func(sv *Services) {
						defer func() { unwound = append(unwound, name) }()
						entered++
						sv.SuspendSelf()
					})
					sv.StartProcess(name)
				}
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	pt, _ := m.Partition("A")
	for restart := 0; restart < 30; restart++ {
		for i := 0; entered < len(names); i++ {
			if i == 200 {
				t.Fatalf("restart %d: only %d bodies entered", restart, entered)
			}
			if err := m.Run(1); err != nil {
				t.Fatal(err)
			}
		}
		entered, unwound = 0, nil
		pt.restart(model.ModeColdStart)
		if !slices.Equal(unwound, names) {
			t.Fatalf("restart %d unwound %v, want process-table order %v", restart, unwound, names)
		}
	}
}

// TestSnapshotBodyRules pins which process bodies Snapshot accepts: a
// closure body is opaque even while dormant, a model-only process has
// nothing to copy, and on warm start the latest registration decides.
func TestSnapshotBodyRules(t *testing.T) {
	forkable := ForkableBody{
		New:   func() any { return new(int) },
		Clone: func(s any) any { n := *s.(*int); return &n },
		Run:   func(sv *Services, _ any) { sv.PeriodicWait() },
	}
	closure := func(sv *Services) {}
	useClosure := true
	var badRCs []apex.ReturnCode
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				spec := aperiodicTask("p", 5)
				if useClosure {
					sv.CreateProcess(spec, closure)
				} else {
					sv.CreateForkableProcess(spec, forkable)
				}
			})},
			{Name: "B", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("burner", 5), nil)
				sv.StartProcess("burner")
				for _, fb := range []ForkableBody{
					{Clone: forkable.Clone, Run: forkable.Run},
					{New: forkable.New, Run: forkable.Run},
					{New: forkable.New, Clone: forkable.Clone},
				} {
					_, rc := sv.CreateForkableProcess(aperiodicTask("bad", 5), fb)
					badRCs = append(badRCs, rc)
				}
			})},
		},
	})
	for i, rc := range badRCs {
		if rc != apex.InvalidParam {
			t.Errorf("CreateForkableProcess with body %d missing a function = %v, want INVALID_PARAM", i, rc)
		}
	}
	if err := m.Run(60); err != nil {
		t.Fatal(err)
	}
	pt, _ := m.Partition("A")
	for _, closureBody := range []bool{true, false, true} {
		if closureBody != useClosure {
			useClosure = closureBody
			pt.restart(model.ModeWarmStart)
		}
		_, err := m.Snapshot()
		if closureBody {
			if !errors.Is(err, ErrNotForkable) || !strings.Contains(err.Error(), "opaque closure") {
				t.Errorf("dormant closure body: Snapshot err = %v, want the opaque-closure rejection", err)
			}
		} else if err != nil {
			t.Errorf("forkable body re-registered on warm start, model-only burner running: Snapshot err = %v", err)
		}
	}
}
