package workload

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"air/internal/core"
	"air/internal/obs"
	"air/internal/tick"
)

// runStepCapacity retains a whole 40-MTF run in the trace ring, so the
// trace comparison covers every retained event, not a window of the tail.
const runStepCapacity = 1 << 16

// spineLog records every event the spine hands its sinks, including the
// kinds the trace ring does not retain.
type spineLog struct{ events []obs.Event }

func (l *spineLog) Emit(e obs.Event) { l.events = append(l.events, e) }

// observation is everything a reader can see of a module after a run.
type observation struct {
	now     tick.Ticks
	halted  bool
	trace   []byte
	health  []byte
	metrics obs.Snapshot
	spine   []obs.Event
}

func observe(t *testing.T, m *core.Module, log *spineLog) observation {
	t.Helper()
	if n := len(m.Trace()); n >= runStepCapacity {
		t.Fatalf("trace ring filled (%d events): raise runStepCapacity", n)
	}
	var tb, hb bytes.Buffer
	if err := m.WriteTrace(&tb); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := m.WriteHealthLog(&hb); err != nil {
		t.Fatalf("WriteHealthLog: %v", err)
	}
	return observation{now: m.Now(), halted: m.Halted(), trace: tb.Bytes(), health: hb.Bytes(),
		metrics: m.Metrics(), spine: log.events}
}

// diffObservations names the first view in which two observations differ.
func diffObservations(a, b observation) error {
	switch {
	case a.now != b.now || a.halted != b.halted:
		return fmt.Errorf("clock %d (halted %v) vs %d (halted %v)", a.now, a.halted, b.now, b.halted)
	case !bytes.Equal(a.trace, b.trace):
		return fmt.Errorf("traces differ (%d vs %d bytes)", len(a.trace), len(b.trace))
	case !bytes.Equal(a.health, b.health):
		return fmt.Errorf("health logs differ (%d vs %d bytes)", len(a.health), len(b.health))
	case !reflect.DeepEqual(a.metrics, b.metrics):
		return errors.New("metrics differ")
	case !reflect.DeepEqual(a.spine, b.spine):
		return fmt.Errorf("spine event streams differ (%d vs %d events)", len(a.spine), len(b.spine))
	}
	return nil
}

// stepN advances the module by n ticks one Step at a time, stopping where
// Run stops: when the module halts.
func stepN(m *core.Module, n tick.Ticks) error {
	for i := tick.Ticks(0); i < n; i++ {
		if err := m.Step(); err != nil {
			if errors.Is(err, core.ErrHalted) {
				return nil
			}
			return err
		}
		if m.Halted() {
			return nil
		}
	}
	return nil
}

// startLogged builds and starts a module with a spine log attached.
func startLogged(t *testing.T, opts Options) (*core.Module, *spineLog) {
	t.Helper()
	log := &spineLog{}
	cfg := Config(opts)
	cfg.Sinks = []obs.Sink{log}
	m, err := core.NewModule(cfg)
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	t.Cleanup(m.Shutdown)
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return m, log
}

// forkLogged forks the snapshot, attaches a spine log and injects the
// options' faults, as a fork-prefix campaign run does.
func forkLogged(t *testing.T, snap *core.Snapshot, opts Options) (*core.Module, *spineLog) {
	t.Helper()
	m, err := snap.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	t.Cleanup(m.Shutdown)
	log := &spineLog{}
	m.Bus().Attach(log)
	if err := InjectFaults(m, opts); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	return m, log
}

// prefixSnapshot runs the options' fault-free prefix for prefixMTFs frames
// and snapshots it at the first quiescent tick from the frame's last tick
// on, the way a fork-prefix campaign does.
func prefixSnapshot(t *testing.T, opts Options, prefixMTFs tick.Ticks) *core.Snapshot {
	t.Helper()
	prefixOpts := opts
	prefixOpts.Faults = nil
	m, _ := startLogged(t, prefixOpts)
	if err := m.Run(prefixMTFs*forkMTF - 1); err != nil {
		t.Fatalf("prefix Run: %v", err)
	}
	for tries := 0; ; tries++ {
		snap, err := m.Snapshot()
		if err == nil {
			return snap
		}
		if tries >= int(forkMTF) {
			t.Fatalf("prefix never quiescent: %v", err)
		}
		if err := m.Step(); err != nil {
			t.Fatalf("prefix Step: %v", err)
		}
	}
}

// scenarioNames lists the equivalence scenarios in a fixed order.
func scenarioNames() []string {
	var names []string
	for name := range equivalenceScenarios() { //air:allow(maprange): keys are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestRunMatchesStep proves the quiet-tick fast-forward unobservable:
// Run(N) must leave a module exactly where N calls to Step leave it — the
// same clock, trace, health log, metrics and full spine event stream —
// for every equivalence scenario, with the liveness watchdog off (or at
// the scenario's default) and at 300 ticks, on a fresh module and on a
// fork of a 21-MTF fault-free prefix with the scenario's faults injected.
func TestRunMatchesStep(t *testing.T) {
	const horizon = 40 * forkMTF
	const prefixMTFs = 21
	scenarios := equivalenceScenarios()
	for _, name := range scenarioNames() {
		for _, hang := range []tick.Ticks{0, 300} {
			opts := scenarios[name]
			opts.HangWatchdog = hang
			opts.TraceCapacity = runStepCapacity
			t.Run(fmt.Sprintf("%s/hang=%d/fresh", name, hang), func(t *testing.T) {
				ran, runLog := startLogged(t, opts)
				stepped, stepLog := startLogged(t, opts)
				if err := ran.Run(horizon); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if err := stepN(stepped, horizon); err != nil {
					t.Fatalf("Step: %v", err)
				}
				if err := diffObservations(observe(t, ran, runLog), observe(t, stepped, stepLog)); err != nil {
					t.Fatalf("Run(%d) vs %d Steps: %v", horizon, horizon, err)
				}
			})
			t.Run(fmt.Sprintf("%s/hang=%d/fork", name, hang), func(t *testing.T) {
				snap := prefixSnapshot(t, opts, prefixMTFs)
				ran, runLog := forkLogged(t, snap, opts)
				stepped, stepLog := forkLogged(t, snap, opts)
				if err := ran.Run(horizon); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if err := stepN(stepped, horizon); err != nil {
					t.Fatalf("Step: %v", err)
				}
				if err := diffObservations(observe(t, ran, runLog), observe(t, stepped, stepLog)); err != nil {
					t.Fatalf("fork Run(%d) vs %d Steps: %v", horizon, horizon, err)
				}
			})
		}
	}
}

// FuzzRunChunks checks that how a run is split into Run calls never shows:
// the first input byte picks an equivalence scenario, the second the
// liveness watchdog (off or the scenario default, or 300 ticks), and the
// remaining bytes, two at a time and cycled, chunk sizes from 1 to 3 MTFs.
// Running the chunks one after another must equal one Run over the same
// horizon.
func FuzzRunChunks(f *testing.F) {
	const horizon = 8 * forkMTF
	names := scenarioNames()
	scenarios := equivalenceScenarios()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip("need a scenario byte, a watchdog byte and chunk bytes")
		}
		opts := scenarios[names[int(data[0])%len(names)]]
		if data[1]&1 == 1 {
			opts.HangWatchdog = 300
		}
		opts.TraceCapacity = runStepCapacity
		sizes := data[2:]

		whole, wholeLog := startLogged(t, opts)
		if err := whole.Run(horizon); err != nil {
			t.Fatalf("Run: %v", err)
		}
		chunked, chunkLog := startLogged(t, opts)
		var chunks []tick.Ticks
		for done, i := tick.Ticks(0), 0; done < horizon; i += 2 {
			raw := int(sizes[i%len(sizes)])<<8 | int(sizes[(i+1)%len(sizes)])
			n := min(1+tick.Ticks(raw)%(3*forkMTF), horizon-done)
			if err := chunked.Run(n); err != nil {
				t.Fatalf("chunk Run(%d): %v", n, err)
			}
			chunks = append(chunks, n)
			done += n
		}
		if err := diffObservations(observe(t, whole, wholeLog), observe(t, chunked, chunkLog)); err != nil {
			t.Fatalf("Run(%d) vs chunks %v: %v", horizon, chunks, err)
		}
	})
}
