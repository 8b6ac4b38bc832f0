package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// profile is a CPU profile of the traced phase, kept in memory until the
// phase ends.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stack is one sampled call stack, leaf first, with its CPU time in
// nanoseconds.
type stack struct {
	funcs []string
	n     int64
}

// stop ends the profile, writes it to path and reads its stacks back with
// `go tool pprof -traces`, from the toolchain that built the benchmark.
func (p *profile) stop(path string) ([]stack, error) {
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces reads the output of `pprof -traces`: a header, then one
// block per stack, each opened by a dashed line. A block's first line holds
// the stack's CPU time and its leaf frame; each further line one caller.
// Inlined frames carry an "(inline)" mark, which is dropped.
func parseTraces(out string) ([]stack, error) {
	var stacks []stack
	inBlock, opened := false, false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBlock, opened = true, true
			continue
		}
		fields := strings.Fields(line)
		if !opened || len(fields) == 0 {
			continue
		}
		if inBlock {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			stacks = append(stacks, stack{n: int64(d)})
			fields, inBlock = fields[1:], false
		}
		last := &stacks[len(stacks)-1]
		last.funcs = append(last.funcs, fields[0])
	}
	return stacks, nil
}

// --- attribution -----------------------------------------------------------------

// attribute assigns one sampled stack (leaf first) to a CPU layer:
//   - a runtime channel, select, lock or goroutine-switch leaf: handshake;
//   - a runtime GC or allocator leaf: gc;
//   - a net/* leaf, or a syscall leaf under a net/* frame: http;
//   - another syscall or os file leaf: io;
//   - an encoding/json leaf: json;
//   - any other leaf: the innermost air/internal/<pkg> frame, or other.
func attribute(funcs []string) string {
	leaf := funcs[0]
	pkg := pkgOf(leaf)
	switch {
	case pkg == "runtime" && hasAnyPrefix(strings.TrimPrefix(leaf, "runtime."), handshakeFuncs):
		return "handshake"
	case pkg == "runtime" && hasAnyPrefix(strings.TrimPrefix(leaf, "runtime."), gcFuncs):
		return "gc"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "http"
	case pkg == "syscall" || strings.HasSuffix(pkg, "runtime/syscall"):
		for _, f := range funcs[1:] {
			if p := pkgOf(f); p == "net" || strings.HasPrefix(p, "net/") {
				return "http"
			}
		}
		return "io"
	case pkg == "os" || pkg == "internal/poll":
		return "io"
	case pkg == "encoding/json":
		return "json"
	}
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(pkgOf(f), "air/internal/"); ok {
			name, _, _ := strings.Cut(rest, "/")
			for _, c := range cpuLayers {
				if c == name {
					return name
				}
			}
			return "other"
		}
	}
	return "other"
}

// handshakeFuncs are runtime function-name prefixes of channel, select,
// lock and goroutine-switch work: the grant/yield handshake's cost.
var handshakeFuncs = []string{
	"chan", "closechan", "selectgo", "selectnb", "sellock", "selunlock", "block",
	"lock", "unlock", "futex", "notesleep", "notewakeup", "notetsleep", "semacquire", "semrelease",
	"gopark", "goready", "ready", "park_m", "schedule", "findRunnable", "execute", "gogo", "mcall",
	"gosched", "goschedImpl", "casgstatus", "runq", "globrunq", "wakep", "startm", "stopm", "mPark",
	"handoffp", "resetspinning", "checkTimers", "netpoll", "epollwait", "usleep", "osyield",
	"procyield", "stealWork", "acquirep", "releasep", "send", "recv", "(*waitq)", "(*hchan)",
}

// gcFuncs are runtime function-name prefixes of the collector and the
// allocator.
var gcFuncs = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "(*mcache)",
	"(*mcentral)", "(*mheap)", "(*mspan)", "(*gcWork)", "(*gcControllerState)", "(*gcBits)", "gc",
	"scanobject", "scanblock", "scanstack", "scanframeworker", "greyobject", "markroot", "findObject",
	"heapBits", "heapSetType", "(*sweepLocked)", "sweepone", "bgsweep", "bgscavenge", "(*pageAlloc)",
	"(*scavengerState)", "wbBuf", "bulkBarrier", "typePointers", "nextFreeFast",
	"memclrNoHeapPointersChunked", "deductAssistCredit", "(*gcCPULimiterState)",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a pprof function name such as
// "air/internal/core.(*Module).Step".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
