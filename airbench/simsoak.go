package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"air/internal/archive"
	"air/internal/config"
	"air/internal/core"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
	"air/internal/timeline"
	"air/internal/workload"
)

const mtfTicks = 1300 // Fig. 8 major time frame

var simSoak = &workloadDef{
	name: "sim-soak",
	run:  runSimSoak,
	aliases: map[string]string{
		"throughput_per_s": "ticks_per_s",
		"op_p50_ms":        "mtf_p50_ms",
		"op_p95_ms":        "mtf_p95_ms",
	},
}

// soakOptions is the Sect. 6 satellite scenario with the P1 injected fault.
// The seed draws the faulty process's deadline near the paper's 220 ticks;
// every draw expires after P1's 200-tick window closes, so the paper's
// behaviour stays the same. Deadlines far from it shift the per-tick cost
// by a few percent, so the draw stays close.
func soakOptions(seed uint64) workload.Options {
	r := splitmix{seed}
	return workload.Options{InjectFault: true, FaultDeadline: tick.Ticks(205 + r.intn(56))}
}

// soak is one module wired the way `airsim -fault -archive DIR` wires it:
// the timeline attached with the default telemetry configuration and the
// archive opened with the default archive configuration, both unbatched.
type soak struct {
	m    *core.Module
	sink *archive.Sink
	dir  string
}

// soakTrace times the two sinks when tracing.
type soakTrace struct {
	tlTime, arTime time.Duration
	tlN, arN       int
	seals          durations
}

// timedSink wraps a spine sink with a timer.
type timedSink struct {
	inner obs.Sink
	total *time.Duration
	n     *int
	// seal, when non-nil, records an emit during which the archive sealed
	// a segment.
	seal     func(d time.Duration)
	segments func() uint64
}

func (s timedSink) Emit(e obs.Event) {
	var before uint64
	if s.seal != nil {
		before = s.segments()
	}
	t0 := time.Now()
	s.inner.Emit(e)
	d := time.Since(t0)
	*s.total += d
	*s.n++
	if s.seal != nil && s.segments() != before {
		s.seal(d)
	}
}

func openSoak(dir string, opts workload.Options, st *soakTrace) (*soak, error) {
	m, err := core.NewModule(workload.Config(opts))
	if err != nil {
		return nil, err
	}
	tl := timeline.New(config.DefaultTelemetry().Options(model.Fig8System()))
	tl.Bind(m.Bus())
	acfg := config.DefaultArchive(dir)
	if err := acfg.Validate(); err != nil {
		m.Shutdown()
		return nil, err
	}
	sink, err := archive.Open(acfg.Dir, acfg.Options())
	if err != nil {
		m.Shutdown()
		return nil, err
	}
	if st == nil {
		m.Bus().Attach(tl)
		m.Bus().Attach(sink)
	} else {
		m.Bus().Attach(timedSink{inner: tl, total: &st.tlTime, n: &st.tlN})
		m.Bus().Attach(timedSink{inner: sink, total: &st.arTime, n: &st.arN,
			seal:     func(d time.Duration) { st.seals = append(st.seals, d) },
			segments: func() uint64 { return sink.Stats().Segments }})
	}
	tl.SetArchiveStats(func() timeline.ArchiveSnap {
		s := sink.Stats()
		return timeline.ArchiveSnap{Segments: s.Segments, Bytes: s.Bytes, Records: s.Records}
	})
	if err := m.Start(); err != nil {
		sink.Close()
		m.Shutdown()
		return nil, err
	}
	return &soak{m: m, sink: sink, dir: dir}, nil
}

// discard tears a soak down and deletes its archive.
func (s *soak) discard() {
	s.sink.Close()
	s.m.Shutdown()
	os.RemoveAll(s.dir)
}

// soakOutcome is what a soak's output check compares.
type soakOutcome struct {
	metrics []byte // Module.Metrics() as JSON
	hmLen   int
	events  uint64
	records uint64
}

func runSimSoak(cfg runConfig, tr *tracer) (*phase, error) {
	opts := soakOptions(cfg.seed)
	p := &phase{}
	var st *soakTrace
	if tr != nil {
		st = &soakTrace{}
	}
	n := 0
	newDir := func() string {
		n++
		return filepath.Join(cfg.work, fmt.Sprintf("soak-%03d", n))
	}
	for i := 0; i < cfg.size.setupReps; i++ {
		t0 := time.Now()
		s, err := openSoak(newDir(), opts, nil)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0))
		s.discard()
	}

	var outcomes []soakOutcome
	var closes durations
	var manifestKB float64
	var bytesTotal uint64
	start := time.Now()
	for soaks := 0; until(start, cfg.budget, soaks); soaks++ {
		t0 := time.Now()
		s, err := openSoak(newDir(), opts, st)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0))

		t0 = time.Now()
		for f := 0; f < cfg.size.soakMTFs; f++ {
			ts := time.Now()
			if err := s.m.Run(mtfTicks); err != nil {
				p.fail(cfg.size.soakMTFs-f, "soak %d: MTF %d: %v", soaks, f, err)
				break
			}
			p.ops = append(p.ops, time.Since(ts))
		}
		tc := time.Now()
		cerr := s.sink.Close()
		closes.since(tc)
		p.rep(float64(cfg.size.soakMTFs*mtfTicks), time.Since(t0))
		p.attempted += cfg.size.soakMTFs
		if cerr != nil {
			p.fail(cfg.size.soakMTFs, "soak %d: archive close: %v", soaks, cerr)
		}

		mj, _ := json.Marshal(s.m.Metrics())
		stats := s.sink.Stats()
		outcomes = append(outcomes, soakOutcome{
			metrics: mj, hmLen: len(s.m.Health().Events()),
			events: s.m.Metrics().Events, records: stats.Records,
		})
		bytesTotal += stats.Bytes
		if fi, err := os.Stat(filepath.Join(s.dir, "MANIFEST.json")); err == nil {
			manifestKB = float64(fi.Size()) / 1024
		}
		s.discard()
	}

	// The reference for (seed, length): the same module with the timeline
	// but no archive, on the batched spine, stepped in one call.
	ref, err := soakReference(opts, cfg.size.soakMTFs)
	if err != nil {
		return nil, err
	}
	for i, o := range outcomes {
		switch {
		case !bytes.Equal(o.metrics, ref.metrics):
			p.fail(cfg.size.soakMTFs, "soak %d: metrics snapshot differs from the reference", i)
		case o.hmLen != ref.hmLen:
			p.fail(cfg.size.soakMTFs, "soak %d: HM log has %d events, reference %d", i, o.hmLen, ref.hmLen)
		case o.records != o.events || o.records != ref.events:
			p.fail(cfg.size.soakMTFs, "soak %d: archive holds %d records for %d spine events (reference %d)",
				i, o.records, o.events, ref.events)
		}
	}
	ticks := float64(len(outcomes) * cfg.size.soakMTFs * mtfTicks)
	p.length = map[string]any{"soaks": len(outcomes), "mtfs_per_soak": cfg.size.soakMTFs,
		"fault_deadline": opts.FaultDeadline, "events_per_soak": ref.events}
	if tr != nil {
		events := float64(ref.events) * float64(len(outcomes))
		tr.set("sim.mtf_p99_ms", ms(quantile(p.ops, 0.99)))
		tr.set("sim.ns_per_event", float64(p.busy)/events)
		tr.set("obs.events_per_tick", events/ticks)
		tr.set("timeline.emit_ns", meanNs(st.tlTime, st.tlN))
		tr.set("archive.emit_ns", meanNs(st.arTime, st.arN))
		tr.setMs("archive.seal_ms", st.seals)
		tr.set("archive.seals", float64(len(st.seals))/float64(len(outcomes)))
		tr.set("archive.manifest_kb", manifestKB)
		tr.set("archive.bytes_per_tick", float64(bytesTotal)/ticks)
		tr.setMs("archive.close_ms", closes)
	}
	return p, nil
}

func soakReference(opts workload.Options, mtfs int) (soakOutcome, error) {
	cfg := workload.Config(opts)
	cfg.BatchObs = true
	m, err := core.NewModule(cfg)
	if err != nil {
		return soakOutcome{}, err
	}
	defer m.Shutdown()
	timeline.Attach(m.Bus(), config.DefaultTelemetry().Options(model.Fig8System()))
	if err := m.Start(); err != nil {
		return soakOutcome{}, err
	}
	if err := m.Run(tick.Ticks(mtfs * mtfTicks)); err != nil {
		return soakOutcome{}, err
	}
	snap := m.Metrics()
	mj, err := json.Marshal(snap)
	if err != nil {
		return soakOutcome{}, err
	}
	return soakOutcome{metrics: mj, hmLen: len(m.Health().Events()), events: snap.Events}, nil
}
