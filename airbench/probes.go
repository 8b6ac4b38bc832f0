package main

import (
	"fmt"
	"time"

	"air/internal/core"
	"air/internal/ipc"
	"air/internal/model"
	"air/internal/pal"
	"air/internal/pmk"
	"air/internal/pos"
	"air/internal/tick"
	"air/internal/workload"
)

// probeKernel times the public calls of the F1/F2/F4/F6 go-test benchmarks
// on Fig. 8 inputs: the partitioned-systems benchmarking vocabulary's tick
// overhead, partition context-switch cost, deadline announce and
// inter-partition communication latency. Each is the median ns/call of
// five repetitions.
func probeKernel(tr *tracer, sz sizes) {
	sys := model.Fig8System()
	newScheduler := func() *pmk.Scheduler {
		var compiled []*pmk.CompiledSchedule
		for i := range sys.Schedules {
			cs, err := pmk.Compile(sys, &sys.Schedules[i])
			if err != nil {
				panic(err) // Fig. 8 is a fixed, valid system
			}
			compiled = append(compiled, cs)
		}
		s, err := pmk.NewScheduler(compiled)
		if err != nil {
			panic(err)
		}
		if _, err := s.Start(); err != nil {
			panic(err)
		}
		return s
	}
	n := sz.probeIters

	sched := newScheduler()
	tr.set("pmk.tick_overhead_ns", perCall(n, func(int) { sched.Tick() }))

	d := pmk.NewDispatcher(newScheduler(), pmk.Hooks{
		SaveContext:                 func(model.PartitionName) {},
		RestoreContext:              func(model.PartitionName) {},
		PendingScheduleChangeAction: func(model.PartitionName) {},
	})
	heirs := [2]pmk.Heir{{Partition: "P1"}, {Partition: "P2"}}
	tr.set("pmk.context_switch_ns", perCall(n, func(i int) { d.Dispatch(heirs[i&1], tick.Ticks(i)) }))

	var now tick.Ticks
	nowFn := func() tick.Ticks { return now }
	q := pal.NewListQueue()
	p := pal.New(pal.Config{Partition: "P1", Queue: q, Now: nowFn})
	k := pos.NewKernel(pos.Options{Partition: "P1", Now: nowFn, Observer: p})
	p.Bind(k)
	for i := 1; i <= 4; i++ { // the satellite partitions hold a handful of processes
		q.Register(pal.Entry{PID: pos.ProcessID(i), Deadline: tick.Ticks(1 << 40)})
	}
	tr.set("pal.announce_ns", perCall(n, func(int) { now++; p.TickAnnounce(1) }))

	r := ipc.NewRouter()
	ch, err := r.AddSampling(ipc.SamplingConfig{
		Name: "attitude", MaxMessage: 64, Refresh: 1300,
		Source:       ipc.PortRef{Partition: "P1", Port: "att_out"},
		Destinations: []ipc.PortRef{{Partition: "P2", Port: "att_in"}, {Partition: "P4", Port: "att_in"}},
	})
	if err != nil {
		panic(err)
	}
	msg := make([]byte, 64)
	tr.set("ipc.sampling_rw_ns", perCall(n, func(i int) {
		_ = ch.Write("P1", msg, tick.Ticks(i))
		_, _ = ch.Read("P2", tick.Ticks(i))
	}))
}

// perCall is the median over five repetitions of n calls, in ns per call.
func perCall(n int, fn func(i int)) float64 {
	var reps durations
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		reps.since(t0)
	}
	return float64(quantile(reps, 0.5)) / float64(n)
}

// probeCore times the stages campaign.Run drives inside one call, with the
// configuration it uses (batched spine, no trace ring): module build and
// start, the 21-MTF prefix, the snapshot, and per fork the Fork call and
// the fault injection.
func probeCore(tr *tracer, sz sizes) error {
	var build, prefix, snap, fork, inject durations
	for rep := 0; rep < sz.buildReps; rep++ {
		t0 := time.Now()
		cfg := workload.Config(workload.Options{TraceCapacity: -1})
		cfg.BatchObs = true
		m, err := core.NewModule(cfg)
		if err != nil {
			return fmt.Errorf("core probe: %w", err)
		}
		if err := m.Start(); err != nil {
			m.Shutdown()
			return fmt.Errorf("core probe: %w", err)
		}
		build.since(t0)

		t0 = time.Now()
		err = m.Run(campaignPrefixMTFs*mtfTicks - 1)
		prefix.since(t0)
		var s *core.Snapshot
		for tries := 0; err == nil; tries++ { // campaign.Run steps on until quiescent, too
			t1 := time.Now()
			if s, err = m.Snapshot(); err == nil {
				snap.since(t1)
				break
			}
			if tries >= mtfTicks {
				break
			}
			err = m.Step()
		}
		if err != nil {
			m.Shutdown()
			return fmt.Errorf("core probe: prefix: %w", err)
		}

		for f := 0; f < 8; f++ {
			t0 = time.Now()
			fm, err := s.Fork()
			if err != nil {
				m.Shutdown()
				return fmt.Errorf("core probe: fork: %w", err)
			}
			fork.since(t0)
			t0 = time.Now()
			err = workload.InjectFaults(fm, workload.Options{Faults: []workload.FaultSpec{
				{Kind: workload.FaultDeadlineOverrun, Deadline: 220},
			}})
			inject.since(t0)
			fm.Shutdown()
			if err != nil {
				m.Shutdown()
				return fmt.Errorf("core probe: inject: %w", err)
			}
		}
		m.Shutdown()
	}
	tr.setMs("core.build_ms", build)
	tr.setMs("core.prefix_ms", prefix)
	tr.setMs("core.snapshot_ms", snap)
	tr.setMs("core.fork_ms", fork)
	tr.set("workload.inject_us", float64(quantile(inject, 0.5))/float64(time.Microsecond))
	return nil
}
