package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"time"
)

// layerDef is one per-layer metric of the traced run. home names the
// workload whose traced phase measures it; "" means every traced run
// measures it itself.
type layerDef struct{ name, unit, home string }

// cpuLayers are the buckets of the CPU split, in report order. The repo's
// module names, plus the runtime buckets and "other" (code in none of them:
// the benchmark itself, unlisted packages, unattributed runtime leaves).
var cpuLayers = []string{"pmk", "pal", "pos", "ipc", "hm", "core", "handshake", "obs", "timeline",
	"archive", "mmu", "workload", "campaign", "fleet", "http", "json", "io", "gc", "other"}

var layerTable = func() []layerDef {
	var t []layerDef
	for _, c := range cpuLayers {
		t = append(t, layerDef{"cpu." + c, "share", ""})
	}
	t = append(t,
		layerDef{"gc.cpu_frac", "fraction", ""},
		layerDef{"gc.cycles_per_op", "count", ""},
		layerDef{"sched.latency_p50_us", "us", ""},
		layerDef{"tail.op_p95_ms", "ms", ""},

		layerDef{"pmk.tick_overhead_ns", "ns", ""},
		layerDef{"pmk.context_switch_ns", "ns", ""},
		layerDef{"pal.announce_ns", "ns", ""},
		layerDef{"ipc.sampling_rw_ns", "ns", ""},

		layerDef{"core.build_ms", "ms", ""},
		layerDef{"core.prefix_ms", "ms", ""},
		layerDef{"core.snapshot_ms", "ms", ""},
		layerDef{"core.fork_ms", "ms", ""},
		layerDef{"workload.inject_us", "us", ""},

		layerDef{"sim.mtf_p99_ms", "ms", "sim-soak"},
		layerDef{"sim.ns_per_event", "ns", "sim-soak"},
		layerDef{"obs.events_per_tick", "events/tick", "sim-soak"},
		layerDef{"timeline.emit_ns", "ns", "sim-soak"},
		layerDef{"archive.emit_ns", "ns", "sim-soak"},
		layerDef{"archive.seal_ms", "ms", "sim-soak"},
		layerDef{"archive.seals", "count", "sim-soak"},
		layerDef{"archive.manifest_kb", "KiB", "sim-soak"},
		layerDef{"archive.bytes_per_tick", "B/tick", "sim-soak"},
		layerDef{"archive.close_ms", "ms", "sim-soak"},

		layerDef{"campaign.run_ms", "ms", "campaign-fork"},
		layerDef{"campaign.worker_busy_frac", "fraction", "campaign-fork"},
		layerDef{"campaign.alloc_mb_per_run", "MiB", "campaign-fork"},
		layerDef{"campaign.mallocs_per_run", "count", "campaign-fork"},

		layerDef{"fleet.acquire_ms", "ms", "fleet-http"},
		layerDef{"fleet.spec_ms", "ms", "fleet-http"},
		layerDef{"fleet.lease_compute_ms", "ms", "fleet-http"},
		layerDef{"fleet.complete_ms", "ms", "fleet-http"},
		layerDef{"fleet.server_complete_ms", "ms", "fleet-http"},
		layerDef{"fleet.complete_req_kb", "KiB", "fleet-http"},
		layerDef{"fleet.archive_kb_per_run", "KiB", "fleet-http"},
		layerDef{"fleet.journal_kb_per_lease", "KiB", "fleet-http"},
		layerDef{"fleet.acquire_useful_ratio", "ratio", "fleet-http"},
		layerDef{"fleet.retries", "count", "fleet-http"},

		layerDef{"archive.open_reader_ms", "ms", "archive-rewind"},
		layerDef{"archive.asof_ms", "ms", "archive-rewind"},
		layerDef{"archive.asof_us_per_krec", "us/krec", "archive-rewind"},
		layerDef{"archive.range_ms", "ms", "archive-rewind"},
		layerDef{"archive.diff_ms", "ms", "archive-rewind"},
	)
	for _, e := range endToEndUnits {
		t = append(t, layerDef{"overhead." + e.name, e.unit, ""})
	}
	return t
}()

// homeLayers lists the per-layer metrics a workload's traced phase measures.
func homeLayers(workload string) []string {
	var names []string
	for _, l := range layerTable {
		if l.home == workload {
			names = append(names, l.name)
		}
	}
	return names
}

// tracer collects per-layer values during a traced phase. A nil *tracer
// means the run is untraced: workloads install no wrappers.
type tracer struct {
	values map[string]float64
}

func newTracer() *tracer { return &tracer{values: map[string]float64{}} }

func (t *tracer) set(name string, v float64) { t.values[name] = v }

func (t *tracer) setMs(name string, d []time.Duration) { t.set(name, ms(quantile(d, 0.5))) }

func (t *tracer) missingAny(names []string) bool {
	for _, n := range names {
		if _, ok := t.values[n]; !ok {
			return true
		}
	}
	return false
}

// metrics returns every per-layer metric with its unit; a layer without a
// value is a bug in the benchmark.
func (t *tracer) metrics() (map[string]metric, error) {
	out := make(map[string]metric, len(layerTable))
	for _, l := range layerTable {
		v, ok := t.values[l.name]
		if !ok {
			return nil, fmt.Errorf("traced run measured no %s", l.name)
		}
		out[l.name] = metric{v, l.unit}
	}
	for name := range t.values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("traced run measured undeclared layer %s", name)
		}
	}
	return out, nil
}

// cpuSplit turns profile stacks into each CPU layer's share of samples.
func (t *tracer) cpuSplit(stacks []stack) {
	var total int64
	by := map[string]int64{}
	for _, s := range stacks {
		by[attribute(s.funcs)] += s.n
		total += s.n
	}
	for _, c := range cpuLayers {
		share := 0.0
		if total > 0 {
			share = float64(by[c]) / float64(total)
		}
		t.set("cpu."+c, share)
	}
}

// --- runtime/metrics ------------------------------------------------------------

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// runtimeDeltas reports the GC's CPU share, GC cycles per operation and the
// median scheduling latency between two readings.
func (t *tracer) runtimeDeltas(a, b []metrics.Sample, ops int) {
	gcCPU := b[0].Value.Float64() - a[0].Value.Float64()
	allCPU := b[1].Value.Float64() - a[1].Value.Float64()
	frac := 0.0
	if allCPU > 0 {
		frac = gcCPU / allCPU
	}
	t.set("gc.cpu_frac", frac)
	cycles := float64(b[2].Value.Uint64() - a[2].Value.Uint64())
	t.set("gc.cycles_per_op", cycles/float64(max(ops, 1)))

	ha, hb := a[3].Value.Float64Histogram(), b[3].Value.Float64Histogram()
	counts := make([]uint64, len(hb.Counts))
	var n uint64
	for i := range hb.Counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		n += counts[i]
	}
	p50 := 0.0
	var seen uint64
	for i, c := range counts {
		seen += c
		if n > 0 && seen*2 >= n {
			// Buckets are [Buckets[i], Buckets[i+1]); report the midpoint.
			lo, hi := hb.Buckets[i], hb.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			p50 = (lo + hi) / 2 * 1e6
			break
		}
	}
	t.set("sched.latency_p50_us", p50)
}

// --- small recorders -------------------------------------------------------------

// durations accumulates timed calls.
type durations []time.Duration

func (d *durations) since(t0 time.Time) { *d = append(*d, time.Since(t0)) }

// meanNs is the mean of the total over count, in nanoseconds.
func meanNs(total time.Duration, count int) float64 {
	return float64(total) / float64(max(count, 1))
}
