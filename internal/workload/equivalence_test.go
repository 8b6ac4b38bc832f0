package workload

import (
	"bytes"
	"reflect"
	"testing"

	"air/internal/core"
	"air/internal/recovery"
	"air/internal/tick"
)

// equivalenceScenarios is the committed scenario set the compiled tick
// engine must reproduce byte for byte: fault-free, each fault kind the
// catalogue defines, a schedule switch, and a recovery-managed storm.
func equivalenceScenarios() map[string]Options {
	pol := recovery.DefaultPolicy()
	s := map[string]Options{
		"fault_free":      {},
		"schedule_switch": {FDIRSwitchOnStale: 2, Faults: []FaultSpec{{Kind: FaultDeadlineOverrun}}},
		"recovery_storm":  {Recovery: &pol, Faults: []FaultSpec{{Kind: FaultRestartStorm}}},
	}
	for _, k := range FaultKinds() {
		s["fault_"+k.String()] = Options{Faults: []FaultSpec{{Kind: k}}}
	}
	return s
}

func runTraced(t *testing.T, cfg core.Config, n tick.Ticks) (trace, health []byte, metrics any) {
	t.Helper()
	m, err := core.NewModule(cfg)
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	defer m.Shutdown()
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := m.Run(n); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var tb, hb bytes.Buffer
	if err := m.WriteTrace(&tb); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := m.WriteHealthLog(&hb); err != nil {
		t.Fatalf("WriteHealthLog: %v", err)
	}
	return tb.Bytes(), hb.Bytes(), m.Metrics()
}

// TestCompiledScheduleEquivalence proves the compiled tick engine — flat
// PST index tables, array-heap deadline queue, batched obs emission — is
// observationally identical to the interpreted scheduler with the paper's
// sorted-list deadline queue: the full JSONL trace, the health log and the
// metrics snapshot must match byte for byte on every committed scenario.
func TestCompiledScheduleEquivalence(t *testing.T) {
	const horizon = 8 * forkMTF
	for name, opts := range equivalenceScenarios() { //air:allow(maprange): subtests; t.Run output is name-keyed
		t.Run(name, func(t *testing.T) {
			compiled := Config(opts)
			trace1, health1, metrics1 := runTraced(t, compiled, horizon)

			interpreted := Config(opts)
			interpreted.InterpretedScheduler = true
			for i := range interpreted.Partitions {
				interpreted.Partitions[i].DeadlineQueue = core.ListQueue
			}
			trace2, health2, metrics2 := runTraced(t, interpreted, horizon)

			if !bytes.Equal(trace1, trace2) {
				t.Errorf("compiled trace differs from interpreted trace (%d vs %d bytes)",
					len(trace1), len(trace2))
			}
			if !bytes.Equal(health1, health2) {
				t.Errorf("compiled health log differs from interpreted health log")
			}
			if !reflect.DeepEqual(metrics1, metrics2) {
				t.Errorf("compiled metrics differ from interpreted metrics")
			}
		})
	}
}

// TestBatchedObsEquivalence proves window-batched sink delivery is
// reader-transparent: a module with BatchObs produces the identical JSONL
// trace and health log as the per-event baseline.
func TestBatchedObsEquivalence(t *testing.T) {
	const horizon = 8 * forkMTF
	for name, opts := range equivalenceScenarios() { //air:allow(maprange): subtests; t.Run output is name-keyed
		t.Run(name, func(t *testing.T) {
			baseline := Config(opts)
			trace1, health1, metrics1 := runTraced(t, baseline, horizon)

			batched := Config(opts)
			batched.BatchObs = true
			trace2, health2, metrics2 := runTraced(t, batched, horizon)

			if !bytes.Equal(trace1, trace2) {
				t.Errorf("batched trace differs from per-event trace (%d vs %d bytes)",
					len(trace1), len(trace2))
			}
			if !bytes.Equal(health1, health2) {
				t.Errorf("batched health log differs from per-event health log")
			}
			if !reflect.DeepEqual(metrics1, metrics2) {
				t.Errorf("batched metrics differ from per-event metrics")
			}
		})
	}
}
