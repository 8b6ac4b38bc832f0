package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runTiny runs one workload at the self-test size and returns the decoded
// report and result lines.
func runTiny(t *testing.T, root, workload, seed, trace string) (map[string]any, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"-workload", workload, "-seed", seed, "-seconds", "0.05", "-trace", trace, "-root", root, "-tiny"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a report and a result line, got %q", workload, out.String())
	}
	var rep struct {
		Report map[string]any `json:"report"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("%s: report line: %v", workload, err)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	return rep.Report, res
}

// TestWorkloadsTiny runs every workload untraced on the default and a
// held-out seed and traced on the default seed, and checks that every
// metric is emitted with its unit, every output check passes, the report
// carries the provenance, and no goroutine outlives the runs.
func TestWorkloadsTiny(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, w := range workloadNames() {
		for _, c := range []struct{ seed, trace string }{{"1", "0"}, {"2", "0"}, {"1", "1"}} {
			rep, res := runTiny(t, root, w, c.seed, c.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s seed=%s trace=%s: correct=%v attempted=%d failed=%d problems=%v",
					w, c.seed, c.trace, res.Correct, res.Attempted, res.Failed, rep["problems"])
			}
			want := map[string]string{}
			if c.trace == "0" {
				for _, e := range endToEndUnits {
					want[e.name] = e.unit
				}
			} else {
				for _, l := range layerTable {
					want[l.name] = l.unit
				}
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, c.trace, name, m, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, c.trace, len(res.Metrics), len(want))
			}
			if c.trace == "0" {
				for _, name := range []string{"setup_s", "throughput_per_s", "op_p50_ms", "peak_rss_mb"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
			prov, _ := rep["provenance"].(map[string]any)
			for _, k := range []string{"cpu_model", "nproc", "gomaxprocs", "go_version", "commit",
				"source_sha256", "archive_dir_fs", "budget_s"} {
				if _, ok := prov[k]; !ok {
					t.Errorf("%s: provenance lacks %s", w, k)
				}
			}
			if rep["length"] == nil {
				t.Errorf("%s: report lacks the run length", w)
			}
		}
	}
	if entries, _ := os.ReadDir(filepath.Join(root, ".bench_build")); len(entries) != 0 {
		t.Errorf("runs left scratch files behind: %v", entries)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines outlive the runs (%d before):\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

var update = flag.Bool("update", false, "rewrite digests.json from this build's outputs")

// TestReferenceDigests runs the workloads whose outputs digests.json pins
// once at each stored seed and size and checks that they reproduce the
// stored digests; with -update it rewrites the file instead.
func TestReferenceDigests(t *testing.T) {
	if *update {
		referenceDigests = nil
	}
	table := digestTable{}
	for _, w := range []string{"campaign-fork", "archive-rewind"} {
		table[w] = map[string]map[string]string{}
		for _, sz := range []sizes{tinySize, fullSize} {
			if sz == fullSize && testing.Short() && !*update {
				continue
			}
			for _, seed := range []uint64{1, 2} {
				cfg := runConfig{seed: seed, size: sz, work: t.TempDir(), workers: runtime.NumCPU()}
				p, err := runPhase(workloads[w], cfg, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", w, digestKey(cfg), err)
				}
				if p.failed != 0 || len(p.digests) == 0 {
					t.Errorf("%s %s: %d failed, %d digests: %v", w, digestKey(cfg), p.failed, len(p.digests), p.problems)
				}
				if _, ok := referenceDigests[w][digestKey(cfg)]; !ok && !*update {
					t.Errorf("digests.json has no entry %s for %s", digestKey(cfg), w)
				}
				table[w][digestKey(cfg)] = p.digests
			}
		}
	}
	if *update && !t.Failed() {
		data, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the
// workloads and metric tables the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json may leave out a workload too noisy to gate on
	// (README.md says which and why), but it names no unknown one.
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s: the program has %v", w.Name, workloadNames())
		}
	}
	var got, want []string
	for _, e := range bj.EndToEnd {
		got = append(got, e.Name+":"+e.Unit)
	}
	for _, e := range endToEndUnits {
		want = append(want, e.name+":"+e.unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end_to_end %v, program has %v", got, want)
	}
	got, want = nil, nil
	for _, e := range bj.PerLayer {
		got = append(got, e.Name+":"+e.Unit)
	}
	for _, l := range layerTable {
		want = append(want, l.name+":"+l.unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per_layer %v,\nprogram has %v", got, want)
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: airbench
Type: cpu
Duration: 503.83ms, Total samples = 30ms ( 5.95%)
-----------+-------------------------------------------------------
      10ms   runtime.selparkcommit
             runtime.park_m
-----------+-------------------------------------------------------
      1.02s   air/internal/core.(*procRuntime).waitGrant (inline)
             air/internal/core.(*Services).Compute
-----------+-------------------------------------------------------
`
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{funcs: []string{"runtime.selparkcommit", "runtime.park_m"}, n: int64(10 * time.Millisecond)},
		{funcs: []string{"air/internal/core.(*procRuntime).waitGrant", "air/internal/core.(*Services).Compute"}, n: int64(1020 * time.Millisecond)},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.selectgo", "air/internal/core.(*Partition).runOneTick"}, "handshake"},
		{[]string{"runtime.lock2", "runtime.chansend", "air/internal/core.(*Module).Step"}, "handshake"},
		{[]string{"runtime.mallocgc", "air/internal/mmu.allocFrame"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "air/internal/mmu.allocFrame"}, "mmu"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write"}, "http"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "os.(*File).Sync", "air/internal/archive.(*Sink).seal"}, "io"},
		{[]string{"encoding/json.(*encodeState).string", "air/internal/fleet.writeJSON"}, "json"},
		{[]string{"strconv.AppendInt", "air/internal/archive.appendInt"}, "archive"},
		{[]string{"air/internal/apex.Foo", "air/internal/core.Bar"}, "other"},
		{[]string{"main.run"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestAirlintClean runs the repository's analyzers over this module, which
// the repository's own airlint meta-test does not reach: it is a module of
// its own.
func TestAirlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs airlint")
	}
	bin := filepath.Join(t.TempDir(), "airlint")
	if out, err := exec.Command("go", "build", "-o", bin, "air/cmd/airlint").CombinedOutput(); err != nil {
		t.Fatalf("building airlint: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "vet", "-vettool="+bin, "./...").CombinedOutput(); err != nil {
		t.Fatalf("airlint finds violations:\n%s", out)
	}
	if out, err := exec.Command("gofmt", "-l", ".").CombinedOutput(); err != nil || len(out) != 0 {
		t.Fatalf("gofmt: %v %s", err, out)
	}
}
