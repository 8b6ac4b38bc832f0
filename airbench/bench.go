package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what every workload receives: the seed that generates its
// inputs, the wall-clock budget of its measured loop, its run lengths and a
// fresh scratch directory on the checkout's filesystem.
type runConfig struct {
	seed    uint64
	budget  time.Duration
	size    sizes
	work    string
	workers int
}

// sizes fixes every run length. Runs are repeated until the budget is
// spent, so the budget sets how many repetitions a run measures and the
// sizes set what one repetition is.
type sizes struct {
	name         string // full, mini or tiny: the size's key in digests.json
	setupReps    int    // extra set-ups per run for the setup_s median (scaled by each workload's set-up cost)
	soakMTFs     int    // MTFs per sim-soak soak
	campaignRuns int    // runs per campaign-fork campaign
	fleetRuns    int    // runs per fleet-http campaign
	fleetMTFs    int    // MTFs per fleet-http run
	fleetLease   int    // runs per fleet lease
	archiveMTFs  int    // MTFs in each archive-rewind archive
	probeIters   int    // calls per micro-probe repetition
	buildReps    int    // timed module builds in the core probe
}

var (
	fullSize = sizes{name: "full", setupReps: 6, soakMTFs: 4000, campaignRuns: 400, fleetRuns: 200, fleetMTFs: 3,
		fleetLease: 4, archiveMTFs: 200, probeIters: 200_000, buildReps: 8}
	// miniSize is the short run a traced run makes of another workload,
	// for the layers its own workload does not drive.
	miniSize = sizes{name: "mini", setupReps: 1, soakMTFs: 400, campaignRuns: 100, fleetRuns: 40, fleetMTFs: 3,
		fleetLease: 4, archiveMTFs: 40, probeIters: 200_000, buildReps: 8}
	tinySize = sizes{name: "tiny", setupReps: 1, soakMTFs: 12, campaignRuns: 6, fleetRuns: 6, fleetMTFs: 2,
		fleetLease: 2, archiveMTFs: 6, probeIters: 2_000, buildReps: 2}
)

// phase is one execution of a workload's measured loop.
type phase struct {
	setup     []time.Duration // every set-up made, measured one included
	busy      time.Duration   // wall time of the measured loop
	rates     []float64       // work units (ticks, runs, queries) per second, per repetition
	ops       []time.Duration // per-operation host time
	attempted int
	failed    int
	problems  []string
	length    map[string]any    // what the run consisted of, for the report
	digests   map[string]string // output name → hex SHA-256, compared with digests.json
}

// rep records one repetition of the measured loop: units of work in d.
func (p *phase) rep(units float64, d time.Duration) {
	p.busy += d
	p.rates = append(p.rates, units/d.Seconds())
}

// fail records n failed operations with a description of the first few.
func (p *phase) fail(n int, format string, args ...any) {
	p.failed += n
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// workloadDef is one workload: its runner and report names.
type workloadDef struct {
	name string
	run  func(cfg runConfig, tr *tracer) (*phase, error)
	// aliases gives the generic end-to-end names their workload-specific
	// meaning in the report (throughput_per_s is ticks_per_s on sim-soak).
	aliases map[string]string
}

var workloadOrder = []*workloadDef{simSoak, campaignFork, fleetHTTP, archiveRewind}

var workloads = func() map[string]*workloadDef {
	m := map[string]*workloadDef{}
	for _, w := range workloadOrder {
		m[w.name] = w
	}
	return m
}()

func workloadNames() []string {
	names := make([]string, len(workloadOrder))
	for i, w := range workloadOrder {
		names[i] = w.name
	}
	return names
}

// endToEndUnits lists the end-to-end metrics every workload reports.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// endToEnd derives the end-to-end metrics of a phase.
func endToEnd(p *phase) map[string]metric {
	return map[string]metric{
		"setup_s":          {quantile(p.setup, 0.5).Seconds(), "s"},
		"throughput_per_s": {median(warm(p.rates)), "1/s"},
		"op_p50_ms":        {ms(quantile(p.ops, 0.5)), "ms"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}
}

// warm drops the first repetition's rate when there are others: it pays
// for heap growth and cold caches that later repetitions do not.
func warm(rates []float64) []float64 {
	if len(rates) > 1 {
		return rates[1:]
	}
	return rates
}

// opP95 is the tail the report shows beside op_p50_ms. It does not repeat
// within a tenth from run to run on a shared two-core machine, so it is a
// per-layer metric of the traced run, not an end-to-end one.
func opP95(p *phase) metric { return metric{ms(quantile(p.ops, 0.95)), "ms"} }

// runPhase runs a workload in a scratch directory of its own, removed
// afterwards.
func runPhase(wl *workloadDef, cfg runConfig, tr *tracer) (*phase, error) {
	dir, err := os.MkdirTemp(cfg.work, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir
	return wl.run(cfg, tr)
}

// execute runs the workload once untraced, or — traced — once untraced and
// once traced for half the budget each, then fills the remaining layers.
func execute(wl *workloadDef, cfg runConfig, traced bool) (*result, error) {
	if !traced {
		p, err := runPhase(wl, cfg, nil)
		if err != nil {
			return nil, err
		}
		m := endToEnd(p)
		return &result{
			Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m,
			report: workloadReport(wl, p, m),
		}, nil
	}

	half := cfg
	half.budget = cfg.budget / 2
	base, err := runPhase(wl, half, nil)
	if err != nil {
		return nil, err
	}
	baseE2E := endToEnd(base)

	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	p, err := runPhase(wl, half, tr)
	rt1 := readRuntime()
	stacks, perr := prof.stop(filepath.Join(cfg.work, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	tracedE2E := endToEnd(p)
	tr.cpuSplit(stacks)
	tr.runtimeDeltas(rt0, rt1, len(p.ops))
	tr.set("tail.op_p95_ms", opP95(p).Value)
	for _, e := range endToEndUnits {
		tr.set("overhead."+e.name, tracedE2E[e.name].Value-baseE2E[e.name].Value)
	}
	probeKernel(tr, cfg.size)
	if err := probeCore(tr, cfg.size); err != nil {
		return nil, err
	}

	attempted, failed := base.attempted+p.attempted, base.failed+p.failed
	problems := append(base.problems, p.problems...)
	sources := map[string]string{}
	mini := cfg
	mini.size = miniSize
	if cfg.size == tinySize {
		mini.size = tinySize
	}
	mini.budget = 0 // one repetition
	for _, other := range workloadOrder {
		if other == wl || !tr.missingAny(homeLayers(other.name)) {
			continue
		}
		sub := newTracer()
		q, err := runPhase(other, mini, sub)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", other.name, err)
		}
		for _, name := range homeLayers(other.name) {
			if _, ok := tr.values[name]; !ok {
				tr.set(name, sub.values[name])
				sources[name] = other.name
			}
		}
		attempted, failed = attempted+q.attempted, failed+q.failed
		problems = append(problems, q.problems...)
	}
	metrics, err := tr.metrics()
	if err != nil {
		return nil, err
	}
	rep := workloadReport(wl, p, tracedE2E)
	rep["untraced"] = baseE2E
	rep["layer_sources"] = sources
	rep["problems"] = problems
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics, report: rep,
	}, nil
}

// workloadReport gives the end-to-end metrics under their workload-specific
// names, plus the error rate and run length.
func workloadReport(wl *workloadDef, p *phase, m map[string]metric) map[string]any {
	named := map[string]metric{wl.aliases["op_p95_ms"]: opP95(p)}
	for k, v := range m {
		if alias, ok := wl.aliases[k]; ok {
			k = alias
		}
		named[k] = v
	}
	named["error_rate"] = metric{float64(p.failed) / float64(max(p.attempted, 1)), "fraction"}
	return map[string]any{
		"workload_metrics": named,
		"repetition_rates": p.rates,
		"length":           p.length,
		"problems":         p.problems,
	}
}

// --- statistics ---------------------------------------------------------------

// quantile interpolates linearly between order statistics (0 for no data).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + time.Duration(frac*float64(s[i+1]-s[i]))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// splitmix is the benchmark's input generator: a splitmix64 stream.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// until reports whether a loop that started at start should run another
// repetition: always the first, then while the budget lasts.
func until(start time.Time, budget time.Duration, reps int) bool {
	return reps == 0 || time.Since(start) < budget
}
