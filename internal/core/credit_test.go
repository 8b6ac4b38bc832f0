package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"air/internal/hm"
	"air/internal/model"
	"air/internal/tick"
)

// The tests below pin the tick accounting of Services.Compute. The kernel
// consumes all but the first tick of a Compute(n) as credit without granting
// the process goroutine, and every observable instant must still be the one
// that granting the goroutine on each tick would give. Tick values are
// worked out by hand on twoPartitionSystem: the first Step is tick 1, A owns
// ticks 1–49 of each 100-tick MTF and B owns 50–99. A body segment entered
// at tick T that calls Compute(n) resumes at T+n when nothing preempts it.

// creditOf returns the compute credit a live process still owes.
func creditOf(t *testing.T, m *Module, part model.PartitionName, name string) tick.Ticks {
	t.Helper()
	pt, err := m.Partition(part)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := pt.kernel.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	rt := pt.runtimes[proc.ID]
	if rt == nil {
		t.Fatalf("process %s has no runtime", name)
	}
	return rt.credit
}

// runTo steps the module until its clock reads now.
func runTo(t *testing.T, m *Module, now tick.Ticks) {
	t.Helper()
	if err := m.Run(now - m.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestComputeCreditPreemptedResumesOnSameTick: lo computes 60 ticks from
// tick 1; hi is released at tick 5 and computes ticks 5–7, so lo owes
// 60-4 = 56 ticks from tick 8. Ticks 8–49 pay 42 of them, B's window
// passes, and ticks 100–113 pay the last 14: lo resumes at 114.
func TestComputeCreditPreemptedResumesOnSameTick(t *testing.T) {
	done := map[string]tick.Ticks{}
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("hi", 1), func(sv *Services) {
					sv.Compute(3)
					done["hi"] = sv.GetTime()
					sv.StopSelf()
				})
				sv.CreateProcess(aperiodicTask("lo", 9), func(sv *Services) {
					sv.Compute(60)
					done["lo"] = sv.GetTime()
					sv.StopSelf()
				})
				sv.StartProcess("lo")
				sv.DelayedStartProcess("hi", 5)
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	runTo(t, m, 6)
	if got := creditOf(t, m, "A", "lo"); got != 56 {
		t.Errorf("lo credit while preempted = %d, want 56", got)
	}
	runTo(t, m, 200)
	if done["hi"] != 8 || done["lo"] != 114 {
		t.Errorf("resume ticks = hi %d, lo %d; want hi 8, lo 114", done["hi"], done["lo"])
	}
}

// TestComputeCreditSuspendedOwesRemainder: the worker computes ticks 1–4 of
// a Compute(20). At tick 5 ctl suspends it and sleeps to tick 15, so ticks
// 6–14 idle with the worker owing 16 ticks. ctl resumes it at tick 15 and
// stops; the worker pays ticks 15–30 and resumes at 31.
func TestComputeCreditSuspendedOwesRemainder(t *testing.T) {
	var workerDone tick.Ticks
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateProcess(aperiodicTask("worker", 9), func(sv *Services) {
					sv.Compute(20)
					workerDone = sv.GetTime()
					sv.StopSelf()
				})
				sv.CreateProcess(aperiodicTask("ctl", 1), func(sv *Services) {
					sv.SuspendProcess("worker")
					sv.TimedWait(10)
					sv.ResumeProcess("worker")
					sv.StopSelf()
				})
				sv.StartProcess("worker")
				sv.DelayedStartProcess("ctl", 5)
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	runTo(t, m, 10)
	pt, _ := m.Partition("A")
	if st, _ := pt.KernelServices().GetProcessStatus("worker"); st.State != model.StateWaiting {
		t.Fatalf("worker state at tick 10 = %v, want waiting (suspended)", st.State)
	}
	if got := creditOf(t, m, "A", "worker"); got != 16 {
		t.Errorf("suspended worker credit = %d, want 16", got)
	}
	runTo(t, m, 49)
	if workerDone != 31 {
		t.Errorf("worker resumed at %d, want 31", workerDone)
	}
}

// TestComputeCreditResetByRestart: a periodic worker with deadline 10
// computes 30 ticks, misses at tick 11 and the HM decision restarts it
// (process restart) or its partition (warm or cold start) on that tick.
// The new activation enters on tick 11 with zero credit: a leaked credit
// would delay its entry. It replenishes its deadline, computes the full 30
// ticks (11–40) and resumes at 41.
func TestComputeCreditResetByRestart(t *testing.T) {
	for _, action := range []hm.Action{
		hm.ActionRestartProcess, hm.ActionWarmStartPartition, hm.ActionColdStartPartition,
	} {
		t.Run(action.String(), func(t *testing.T) {
			var enters, dones []tick.Ticks
			m := startModule(t, Config{
				System: twoPartitionSystem(),
				Partitions: []PartitionConfig{
					{Name: "A", Init: normalInit(func(sv *Services) {
						sv.CreateProcess(model.TaskSpec{
							Name: "worker", Period: 100, Deadline: 10,
							BasePriority: 5, WCET: 10, Periodic: true,
						}, func(sv *Services) {
							enters = append(enters, sv.GetTime())
							if len(enters) > 1 {
								sv.Replenish(100)
							}
							sv.Compute(30)
							dones = append(dones, sv.GetTime())
							sv.StopSelf()
						})
						sv.StartProcess("worker")
					}),
						HMProcessTable: hm.Table{
							hm.ErrDeadlineMissed: hm.Rule{Action: action},
						}},
					{Name: "B", Init: normalInit(nil)},
				},
			})
			runTo(t, m, 11)
			if got := creditOf(t, m, "A", "worker"); got != 29 {
				t.Errorf("credit after restart = %d, want 29 (a fresh Compute(30))", got)
			}
			runTo(t, m, 49)
			if want := []tick.Ticks{1, 11}; !slices.Equal(enters, want) {
				t.Errorf("activations entered at %v, want %v", enters, want)
			}
			if want := []tick.Ticks{41}; !slices.Equal(dones, want) {
				t.Errorf("activations resumed at %v, want %v", dones, want)
			}
		})
	}
}

// TestComputeCreditNoTick: Compute(0) and Compute(-1) return without
// consuming a tick, and so does Compute from kernel context.
func TestComputeCreditNoTick(t *testing.T) {
	var times []tick.Ticks
	var initBefore, initAfter tick.Ticks
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				initBefore = sv.GetTime()
				sv.Compute(5)
				initAfter = sv.GetTime()
				sv.CreateProcess(aperiodicTask("p", 5), func(sv *Services) {
					times = append(times, sv.GetTime())
					sv.Compute(0)
					sv.Compute(-1)
					times = append(times, sv.GetTime())
					sv.Compute(1)
					times = append(times, sv.GetTime())
					sv.StopSelf()
				})
				sv.StartProcess("p")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	if initBefore != initAfter {
		t.Errorf("kernel-context Compute moved the clock: %d → %d", initBefore, initAfter)
	}
	pt, _ := m.Partition("A")
	pt.KernelServices().Compute(5)
	if m.Now() != 0 {
		t.Errorf("kernel-context Compute advanced the module to %d", m.Now())
	}
	runTo(t, m, 10)
	if want := []tick.Ticks{1, 1, 2}; !slices.Equal(times, want) {
		t.Errorf("body instants = %v, want %v", times, want)
	}
}

// TestComputeCreditRunawayCaughtOnSameTick: a Compute(1<<30) runaway is
// caught by deadline monitoring, and a silent spin by the HangTicks
// watchdog, on the tick worked out by hand.
func TestComputeCreditRunawayCaughtOnSameTick(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		// Deadline 30 expires inside A's window and is detected on the
		// first tick past it, t=31. The restarted activation's deadline 61
		// falls in B's window and is detected at A's next dispatch, t=100;
		// the next one (130) at 131, and 161 at the dispatch at 200.
		m := startModule(t, Config{
			System: twoPartitionSystem(),
			Partitions: []PartitionConfig{
				{Name: "A", Init: normalInit(func(sv *Services) {
					sv.CreateProcess(model.TaskSpec{
						Name: "runaway", Period: 100, Deadline: 30,
						BasePriority: 5, WCET: 10, Periodic: true,
					}, func(sv *Services) {
						sv.Compute(1 << 30)
					})
					sv.StartProcess("runaway")
				}),
					HMProcessTable: hm.Table{
						hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionRestartProcess},
					}},
				{Name: "B", Init: normalInit(nil)},
			},
		})
		runTo(t, m, 200)
		var misses []tick.Ticks
		for _, e := range m.TraceKind(EvDeadlineMiss) {
			misses = append(misses, e.Time)
		}
		if want := []tick.Ticks{31, 100, 131, 200}; !slices.Equal(misses, want) {
			t.Fatalf("deadline misses at %v, want %v", misses, want)
		}
	})
	t.Run("hang", func(t *testing.T) {
		// Ticks 1–10 compute (10 without progress), the TimedWait at 11
		// blocks (progress: the count resets) until 16, and the spin from
		// 16 reaches HangTicks=30 unproductive ticks at 45.
		m := startModule(t, Config{
			System: twoPartitionSystem(),
			Partitions: []PartitionConfig{
				{Name: "A", Init: normalInit(func(sv *Services) {
					sv.CreateProcess(aperiodicTask("spin", 5), func(sv *Services) {
						sv.Compute(10)
						sv.TimedWait(5)
						sv.Compute(1 << 30)
					})
					sv.StartProcess("spin")
				})},
				{Name: "B", Init: normalInit(nil)},
			},
			HangTicks: 30,
		})
		runTo(t, m, 49)
		var hangs []tick.Ticks
		for _, e := range m.Health().EventsFor("A") {
			if e.Code == hm.ErrPartitionHang {
				hangs = append(hangs, e.Time)
			}
		}
		if want := []tick.Ticks{45}; !slices.Equal(hangs, want) {
			t.Fatalf("PARTITION_HANG reported at %v, want %v", hangs, want)
		}
	})
}

// TestSnapshotRejectsMidCompute: a module whose live process still owes
// compute credit is not forkable, whether the process is running or
// suspended mid-Compute; once the credit is paid and the process parks in
// PeriodicWait the same module snapshots.
func TestSnapshotRejectsMidCompute(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateForkableProcess(periodicTask("w", 100, 5), ForkableBody{
					New:   func() any { return nil },
					Clone: func(any) any { return nil },
					Run: func(sv *Services, _ any) {
						for {
							sv.Compute(20)
							sv.PeriodicWait()
						}
					},
				})
				sv.StartProcess("w")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	mustRejectCredit := func(when string) {
		t.Helper()
		_, err := m.Snapshot()
		if !errors.Is(err, ErrNotForkable) || !strings.Contains(err.Error(), "mid-Compute") {
			t.Fatalf("Snapshot %s: err = %v, want ErrNotForkable naming mid-Compute", when, err)
		}
	}
	runTo(t, m, 5)
	mustRejectCredit("while computing")
	pt, _ := m.Partition("A")
	if rc := pt.KernelServices().SuspendProcess("w"); rc != 0 {
		t.Fatalf("SuspendProcess = %v", rc)
	}
	mustRejectCredit("while suspended")
	pt.KernelServices().ResumeProcess("w")
	runTo(t, m, 30)
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot after the credit was paid: %v", err)
	}
}
