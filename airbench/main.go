// Command airbench is the repository's benchmark. One invocation runs one
// named workload through the public functions of internal/{workload, core,
// campaign, fleet, archive, timeline} for a fixed wall-clock budget, checks
// the workload's simulated output, and prints its metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash airbench/run.sh --workload sim-soak --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a separate
// traced run. The line before it is a report: provenance, the metrics
// under their workload-specific names, and the first output-check
// failures. README.md beside this file defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, executes the workload and prints the report and
// result lines. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("airbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed    = fs.Uint64("seed", 1, "seed that generates every input of the workload")
		seconds = fs.Float64("seconds", 10, "wall-clock seconds the measured loop runs")
		trace   = fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root    = fs.String("root", ".", "checkout the benchmark runs in; scratch files go under ROOT/.bench_build")
		tiny    = fs.Bool("tiny", false, "shrink every run length (self-test size)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "airbench: need -workload in %v, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	sz := fullSize
	if *tiny {
		sz = tinySize
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "work-"+*name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "airbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		size:    sz,
		work:    work,
		workers: runtime.NumCPU(),
	}
	out, err := execute(wl, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "airbench:", err)
		return 1
	}
	out.report["provenance"] = provenance(*root, work, *name, cfg, *trace == 1)
	if err := printResult(stdout, out); err != nil {
		fmt.Fprintln(stderr, "airbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation prints: the report line, then the line the
// runner of BENCHMARK.json reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report map[string]any
}

func printResult(w io.Writer, out *result) error {
	rep, err := json.Marshal(map[string]any{"report": out.report})
	if err != nil {
		return err
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rep, last)
	return err
}
