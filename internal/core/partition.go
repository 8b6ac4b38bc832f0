package core

import (
	"fmt"
	"runtime"
	"strings"

	"air/internal/hm"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/pal"
	"air/internal/pos"
	"air/internal/recovery"
	"air/internal/tick"
)

// Default addressing-space layout installed when a partition config does not
// override Descriptors: code (r-x), data (rw-), stack (rw-).
var defaultDescriptors = []mmu.Descriptor{
	{Section: mmu.SectionCode, Base: 0x0000_0000, Size: 16 * mmu.PageSize,
		AppPerms: mmu.Read | mmu.Execute, POSPerms: mmu.Read | mmu.Execute},
	{Section: mmu.SectionData, Base: 0x0010_0000, Size: 64 * mmu.PageSize,
		AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
	{Section: mmu.SectionStack, Base: 0x0020_0000, Size: 16 * mmu.PageSize,
		AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
}

// yieldKind is what a process goroutine reports back after a grant.
type yieldKind int

const (
	// yieldConsumed: the process used its granted tick computing.
	yieldConsumed yieldKind = iota + 1
	// yieldBlocked: the process transitioned to waiting without consuming
	// the tick; the POS scheduler picks the next heir within the same tick.
	yieldBlocked
	// yieldDone: the goroutine unwound — the body returned, faulted,
	// stopped itself or was killed — and removed its runtime entry.
	yieldDone
)

// stopSentinel is panicked into a process goroutine to unwind it: by the
// process itself (StopSelf and the other self-terminating services) or by
// waitGrant when the kernel kills the process.
type stopSentinel struct{}

// procRuntime is the kernel side of one live process goroutine. The two
// channels carry a strict alternation: the kernel sends on grant and waits
// on yield, the goroutine waits on grant and answers on yield.
type procRuntime struct {
	// grant hands the processor to the goroutine: true runs body code,
	// false kills the process, and the goroutine unwinds and acks yieldDone.
	grant chan bool
	yield chan yieldKind
	// state is the forkable body's state cell (nil for a closure body);
	// snapshot/fork clones it into the fork's re-spawned goroutine.
	state any
	// stackUsed tracks the simulated stack consumption for STACK_OVERFLOW
	// detection (Services.StackProbe).
	stackUsed int
	// everGranted records whether the goroutine has ever received a grant:
	// a never-granted goroutine is still parked at the body's entry point
	// (DELAYED_START), which snapshot quiescence validation treats as
	// fork-safe — the fork re-enters the body from the top.
	everGranted bool
	// credit counts the ticks still owed by the Services.Compute call the
	// goroutine is parked in. The kernel consumes them on dispatch without
	// granting the goroutine, which runs again only when body code follows.
	credit tick.Ticks
}

func (rt *procRuntime) waitGrant() {
	if !<-rt.grant {
		panic(stopSentinel{})
	}
}

// pendingKind names the kernel operation a pendingOp carries.
type pendingKind uint8

const (
	pendingNone pendingKind = iota
	// pendingProcess: a process-level HM decision (application panic,
	// RAISE_APPLICATION_ERROR, STACK_OVERFLOW).
	pendingProcess
	// pendingPartition: a partition-level HM decision (memory violation).
	pendingPartition
	// pendingMode: a SET_PARTITION_MODE idle/coldStart/warmStart request.
	pendingMode
)

// pendingOp is a kernel operation raised on a process goroutine that must
// execute on the kernel side of the handshake. Every writer ends its
// goroutine in the same grant, so at most one is pending at a time.
type pendingOp struct {
	kind     pendingKind
	process  string
	decision hm.Decision
	mode     model.OperatingMode
}

// Partition is the runtime containment domain of one partition: its POS
// kernel and PAL instance, its process goroutines, its APEX objects and its
// ports (paper Sect. 2: "a (system) application, and the given APEX
// interface, POS and AIR PAL instances compose the containment domain of
// each partition").
type Partition struct {
	mod *Module
	cfg PartitionConfig

	name   model.PartitionName
	system bool
	mode   model.OperatingMode

	kernel *pos.Kernel
	pal    *pal.PAL

	// runtimes holds one entry per live process goroutine; the goroutine
	// removes its own entry as it exits.
	runtimes map[pos.ProcessID]*procRuntime
	// bodies holds every created process's body. A closure body has only
	// Run set, a model-only process (nil body) nothing.
	bodies  map[pos.ProcessID]ForkableBody
	handler ErrorHandler
	// postInit is integration code injected after construction (fault
	// injection on forked modules, Module.Inject). It re-runs with
	// initialization-mode privileges on every partition restart, exactly as
	// configuration-time Init code does.
	postInit InitFunc

	buffers     map[string]*buffer
	blackboards map[string]*blackboard
	semaphores  map[string]*semaphore
	events      map[string]*eventObj
	sampPorts   map[string]*samplingPort
	queuePorts  map[string]*queuingPort

	// pending holds the kernel operation the last granted process raised
	// as it ended, until the kernel side applies it.
	pending pendingOp

	// noProgress counts consecutive granted ticks consumed without any
	// process completing or blocking — the liveness watchdog's evidence of a
	// no-progress hang (Config.HangTicks).
	noProgress tick.Ticks

	startCount int
}

func newPartition(m *Module, cfg PartitionConfig) (*Partition, error) {
	pt := &Partition{
		mod:    m,
		cfg:    cfg,
		name:   cfg.Name,
		system: cfg.System,
		mode:   model.ModeIdle,
	}
	pt.buildKernel()
	pt.clearObjects()
	return pt, nil
}

// buildKernel creates a fresh POS kernel + PAL pair for the partition.
func (pt *Partition) buildKernel() {
	nowFn := func() tick.Ticks { return pt.mod.now }
	var queue pal.DeadlineQueue
	switch pt.cfg.DeadlineQueue {
	case TreeQueue:
		queue = pal.NewTreeQueue()
	case ListQueue:
		queue = pal.NewListQueue()
	default:
		queue = pal.NewHeapQueue()
	}
	p := pal.New(pal.Config{
		Partition: pt.name,
		Queue:     queue,
		Health:    pt.mod.health,
		Now:       nowFn,
	})
	k := pos.NewKernel(pos.Options{
		Partition:    pt.name,
		Policy:       pt.cfg.Policy,
		Now:          nowFn,
		Observer:     p,
		MaxProcesses: pt.cfg.MaxProcesses,
		Obs:          obs.NewEmitter(pt.mod.bus, pt.mod.coreID),
	})
	p.Bind(k)
	pt.kernel = k
	pt.pal = p
	pt.runtimes = make(map[pos.ProcessID]*procRuntime)
	pt.bodies = make(map[pos.ProcessID]ForkableBody)
}

func (pt *Partition) clearObjects() {
	pt.buffers = make(map[string]*buffer)
	pt.blackboards = make(map[string]*blackboard)
	pt.semaphores = make(map[string]*semaphore)
	pt.events = make(map[string]*eventObj)
	pt.sampPorts = make(map[string]*samplingPort)
	pt.queuePorts = make(map[string]*queuingPort)
	pt.handler = nil
	pt.mod.health.SetHandlerInstalled(pt.name, false)
}

// stackBytes returns the total size of the partition's stack sections.
func (pt *Partition) stackBytes() int {
	total := 0
	for _, d := range pt.mod.memory.Descriptors(pt.name) {
		if d.Section == mmu.SectionStack {
			total += int(d.Size)
		}
	}
	return total
}

// mapSpace installs the partition's addressing space descriptors and
// memory-mapped devices.
func (pt *Partition) mapSpace() error {
	descriptors := pt.cfg.Descriptors
	if descriptors == nil {
		descriptors = defaultDescriptors
	}
	if err := pt.mod.memory.MapSpace(mmu.SpaceSpec{
		Partition:   pt.name,
		Descriptors: descriptors,
	}); err != nil {
		return err
	}
	for _, dm := range pt.cfg.Devices {
		if err := pt.mod.memory.MapDevice(pt.name, dm.Base, dm.Size,
			dm.AppPerms, dm.POSPerms, dm.Device); err != nil {
			return fmt.Errorf("partition %s: %w", pt.name, err)
		}
	}
	return nil
}

// coldStart runs the partition's initialization in coldStart mode.
func (pt *Partition) coldStart() {
	pt.mode = model.ModeColdStart
	pt.startCount++
	pt.runInit()
}

// warmStart runs the initialization in warmStart mode, preserving the
// process table, ports and objects.
func (pt *Partition) warmStart() {
	pt.mode = model.ModeWarmStart
	pt.startCount++
	pt.runInit()
}

func (pt *Partition) runInit() {
	if pt.cfg.Init == nil {
		// No initialization code: the partition boots straight to normal,
		// which models configuration-only partitions.
		pt.mode = model.ModeNormal
	} else {
		pt.cfg.Init(pt.services(pos.InvalidProcess, nil))
	}
	if pt.postInit != nil {
		// Injected integration code runs with initialization-mode
		// privileges even when Init already transitioned to normal, so it
		// can create/start processes like configuration-time code.
		prev := pt.mode
		if prev == model.ModeNormal {
			pt.mode = model.ModeColdStart
		}
		pt.postInit(pt.services(pos.InvalidProcess, nil))
		pt.mode = prev
	}
}

// restart applies a cold or warm partition restart: all process goroutines
// are terminated and initialization re-runs. Cold start additionally wipes
// the process table and all APEX objects.
func (pt *Partition) restart(mode model.OperatingMode) {
	pt.killAll()
	pt.noProgress = 0
	switch mode {
	case model.ModeColdStart:
		// A cold start is a fresh incarnation of the partition: stale HM
		// escalation counters must not survive it, or a fault in the new
		// incarnation inherits the old one's strike history.
		pt.mod.health.ResetPartition(pt.name)
		pt.buildKernel()
		pt.clearObjects()
		pt.coldStart()
	default:
		pt.kernel.ResetAll()
		pt.resetWaitQueues()
		pt.warmStart()
	}
}

// stop shuts the partition down (idle mode): all processes terminated,
// scheduler disabled.
func (pt *Partition) stop() {
	pt.killAll()
	pt.noProgress = 0
	pt.kernel.ResetAll()
	pt.resetWaitQueues()
	pt.mode = model.ModeIdle
	pt.mod.traceEvent(Event{Time: pt.mod.now, Kind: EvPartitionStopped,
		Partition: pt.name, Detail: "partition set to idle"})
}

// resetWaitQueues clears waiters from all APEX objects (the waiting
// processes were terminated).
//
//air:allow(maprange): every queue is cleared independently; order-insensitive
func (pt *Partition) resetWaitQueues() {
	for _, b := range pt.buffers {
		b.senders.clear()
		b.receivers.clear()
	}
	for _, bb := range pt.blackboards {
		bb.readers.clear()
	}
	for _, s := range pt.semaphores {
		s.waiters.clear()
	}
	for _, e := range pt.events {
		e.waiters.clear()
	}
}

// killAll force-terminates every live process goroutine, in process-table
// order, so killed bodies unwind in the same order on every run.
func (pt *Partition) killAll() {
	for _, proc := range pt.kernel.Processes() {
		pt.killProcess(proc.ID)
	}
}

// killProcess force-terminates one process goroutine, if it has one, and
// waits until it has unwound. A deferred call in the body that blocks again
// is answered with another kill.
func (pt *Partition) killProcess(id pos.ProcessID) {
	rt := pt.runtimes[id]
	if rt == nil {
		return
	}
	rt.grant <- false
	for <-rt.yield != yieldDone {
		rt.grant <- false
	}
}

// start spawns the goroutine of a process the kernel has just started. A
// (re)start is a new activation of the body, so a forkable body gets a
// fresh state cell from its constructor.
func (pt *Partition) start(id pos.ProcessID) {
	fb := pt.bodies[id]
	var state any
	if fb.New != nil {
		state = fb.New()
	}
	pt.spawn(id, fb, state)
}

// spawn starts the goroutine of process id around the given state cell and
// returns its runtime, or nil for a model-only process, which has no
// goroutine. The goroutine waits for its first grant (first dispatch)
// before running the body, and every way out of it — return, fault, stop or
// kill — removes its runtime entry and acks yieldDone.
func (pt *Partition) spawn(id pos.ProcessID, fb ForkableBody, state any) *procRuntime {
	if fb.Run == nil {
		return nil // model-only process: pure time consumer
	}
	rt := &procRuntime{
		grant: make(chan bool),
		yield: make(chan yieldKind),
		state: state,
	}
	pt.runtimes[id] = rt
	sv := pt.services(id, rt)
	//air:allow(goroutine): process runtimes are goroutines by design, lock-stepped with the kernel via the grant/yield handshake
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopSentinel); !ok {
					// Application fault: contained within the partition,
					// reported as a process-level error — arithmetic traps
					// classify as NUMERIC_ERROR, everything else as
					// APPLICATION_ERROR (Sect. 2.4 error classes).
					name := spec(pt, id)
					pt.pending = pendingOp{kind: pendingProcess, process: name,
						decision: pt.mod.health.ReportProcess(pt.name, name,
							classifyPanic(r), fmt.Sprintf("process panic: %v", r))}
					_ = pt.kernel.Stop(id)
				}
			}
			delete(pt.runtimes, id)
			rt.yield <- yieldDone
		}()
		rt.waitGrant()
		fb.Run(sv, state)
		// Normal return: the process stops itself (dormant).
		_ = pt.kernel.Stop(id)
	}()
	return rt
}

// runOneTick runs the partition's process scheduling for one granted tick:
// the heir process (eq. 14) executes until it consumes the tick or blocks;
// blocked heirs cascade to the next heir within the same tick.
func (pt *Partition) runOneTick() {
	for {
		proc, ok := pt.kernel.Dispatch()
		if !ok {
			return // no eligible process: the tick idles inside the window
		}
		rt := pt.runtimes[proc.ID]
		if rt == nil {
			// Model-only process: consumes the tick with no observable
			// effect (a pure CPU burner used in analysis/benchmarks).
			return
		}
		if rt.credit > 0 {
			// Mid-Compute: no body code runs this tick, and every pending
			// kernel op is raised by a goroutine that then terminates, so
			// none can be waiting here.
			rt.credit--
			pt.noteTickConsumed()
			return
		}
		rt.everGranted = true
		rt.grant <- true
		kind := <-rt.yield
		if pt.applyPendingKernelOps() {
			return // a partition-level transition consumed the tick
		}
		switch kind {
		case yieldConsumed:
			pt.noteTickConsumed()
			return
		case yieldBlocked, yieldDone:
			pt.noProgress = 0
			continue
		}
	}
}

// quietTicks bounds, from limit down, the number of upcoming ticks on which
// this active partition's share of Step — PAL tick announce, and process
// dispatch in normal mode — would change nothing beyond compute credit and
// the watchdog's counter. No waiting process may wake and no deadline may
// pass before the last of them; in normal mode the dispatch must be steady,
// and a process running on credit must owe at least that many ticks without
// reaching the hang threshold. The returned runtime is the one whose credit
// pays for the ticks (nil when none is owed).
func (pt *Partition) quietTicks(now, limit tick.Ticks) (tick.Ticks, *procRuntime) {
	k := min(limit, pt.kernel.NextWake()-now-1)
	if d, ok := pt.pal.EarliestDeadline(); ok {
		k = min(k, d-now)
	}
	if k <= 0 || pt.mode != model.ModeNormal {
		return k, nil
	}
	proc, ok := pt.kernel.Steady()
	if !ok {
		return 0, nil
	}
	if proc == nil {
		return k, nil // nothing eligible: the window idles
	}
	rt := pt.runtimes[proc.ID]
	if rt == nil {
		return k, nil // model-only process: consumes ticks with no effect
	}
	k = min(k, rt.credit)
	if h := pt.mod.cfg.HangTicks; h > 0 {
		k = min(k, h-1-pt.noProgress)
	}
	return k, rt
}

// noteTickConsumed feeds the partition liveness watchdog: a partition whose
// processes consume granted ticks without ever completing or blocking is
// hung in a way deadline monitoring cannot see (a spin with no
// deadline-carrying yield). After Config.HangTicks consecutive such ticks
// the hang is reported to the Health Monitor as a partition-level
// PARTITION_HANG error and its decision applied.
func (pt *Partition) noteTickConsumed() {
	threshold := pt.mod.cfg.HangTicks
	if threshold <= 0 {
		return
	}
	pt.noProgress++
	if pt.noProgress < threshold {
		return
	}
	pt.noProgress = 0
	d := pt.mod.health.ReportPartition(pt.name, hm.ErrPartitionHang,
		fmt.Sprintf("liveness watchdog: no process progress for %d granted ticks", threshold))
	pt.applyPartitionDecision(d)
}

// applyPendingKernelOps applies the kernel operation the granted process
// raised as it ended (Partition.pending). It returns true when the partition
// underwent a mode transition (restart/stop), which ends the tick.
func (pt *Partition) applyPendingKernelOps() bool {
	op := pt.pending
	if op.kind == pendingNone {
		return false
	}
	pt.pending = pendingOp{}
	switch op.kind {
	case pendingProcess:
		pt.applyProcessDecision(op.process, op.decision)
		switch op.decision.Action {
		case hm.ActionWarmStartPartition, hm.ActionColdStartPartition,
			hm.ActionStopPartition, hm.ActionResetModule, hm.ActionShutdownModule:
			return true
		}
		return false
	case pendingPartition:
		pt.applyPartitionDecision(op.decision)
	case pendingMode:
		switch op.mode {
		case model.ModeIdle:
			pt.stop()
		case model.ModeColdStart, model.ModeWarmStart:
			pt.mod.traceEvent(Event{Time: pt.mod.now, Kind: EvPartitionRestart,
				Partition: pt.name, Detail: "SET_PARTITION_MODE " + op.mode.String()})
			pt.restart(op.mode)
		}
	}
	return true
}

// classifyPanic maps a recovered panic value onto the ARINC 653 error
// class: arithmetic runtime traps (divide by zero, shift range) are
// NUMERIC_ERROR; everything else is APPLICATION_ERROR.
func classifyPanic(r any) hm.ErrorCode {
	err, ok := r.(runtime.Error)
	if !ok {
		return hm.ErrApplicationError
	}
	msg := err.Error()
	if strings.Contains(msg, "divide by zero") || strings.Contains(msg, "shift") ||
		strings.Contains(msg, "floating point") {
		return hm.ErrNumericError
	}
	return hm.ErrApplicationError
}

// spec returns a process's name for diagnostics, tolerating lookup failure.
func spec(pt *Partition, id pos.ProcessID) string {
	if p, err := pt.kernel.Get(id); err == nil {
		return p.Spec.Name
	}
	return fmt.Sprintf("pid%d", id)
}

// services builds a Services facade bound to this partition and optionally
// to a process (rt non-nil for process context).
func (pt *Partition) services(id pos.ProcessID, rt *procRuntime) *Services {
	return &Services{mod: pt.mod, pt: pt, pid: id, rt: rt}
}

// applyProcessDecision carries out a Health Monitor decision for a
// process-level error (Sect. 5 recovery actions).
func (pt *Partition) applyProcessDecision(process string, d hm.Decision) {
	m := pt.mod
	// Any supervised recovery action counts as progress for the liveness
	// watchdog: the partition is faulty but not silently hung.
	pt.noProgress = 0
	switch d.Action {
	case hm.ActionIgnore:
		// Logged by the HM; no recovery.
	case hm.ActionInvokeHandler:
		if pt.handler != nil {
			pt.handler(pt.services(pos.InvalidProcess, nil), d.Event)
		}
	case hm.ActionStopProcess:
		pt.stopProcessByName(process)
		m.traceEvent(Event{Time: m.now, Kind: EvProcessStopped,
			Partition: pt.name, Process: process, Detail: "HM stop"})
	case hm.ActionRestartProcess:
		pt.stopProcessByName(process)
		if proc, err := pt.kernel.Lookup(process); err == nil {
			if err := pt.kernel.Start(proc.ID); err == nil {
				pt.start(proc.ID)
			}
		}
		m.traceEvent(Event{Time: m.now, Kind: EvProcessRestarted,
			Partition: pt.name, Process: process, Detail: "HM restart"})
	case hm.ActionWarmStartPartition:
		pt.requestRestart(model.ModeWarmStart, "HM warm start")
	case hm.ActionColdStartPartition:
		pt.requestRestart(model.ModeColdStart, "HM cold start")
	case hm.ActionStopPartition:
		pt.stop()
	case hm.ActionResetModule:
		m.resetModule()
	case hm.ActionShutdownModule:
		m.shutdownModule()
	}
}

// applyPartitionDecision carries out a decision for a partition-level error.
func (pt *Partition) applyPartitionDecision(d hm.Decision) {
	m := pt.mod
	switch d.Action {
	case hm.ActionIgnore, hm.ActionInvokeHandler:
		// Partition-level errors have no application handler; treat as log.
	case hm.ActionWarmStartPartition:
		pt.requestRestart(model.ModeWarmStart, "HM warm start")
	case hm.ActionColdStartPartition:
		pt.requestRestart(model.ModeColdStart, "HM cold start")
	case hm.ActionStopPartition:
		pt.stop()
	case hm.ActionResetModule:
		m.resetModule()
	case hm.ActionShutdownModule:
		m.shutdownModule()
	default:
		pt.stop()
	}
}

// requestRestart routes an HM-decided partition restart through the module's
// recovery engine when one is configured. An allowed restart executes
// immediately (the trace event's Latency carries the restart-budget window
// occupancy); a deferred or quarantined restart drives the partition to idle
// instead — the engine revives it from Module.Step once the backoff or
// cooldown elapses.
func (pt *Partition) requestRestart(mode model.OperatingMode, detail string) {
	m := pt.mod
	if m.recov == nil {
		m.traceEvent(Event{Time: m.now, Kind: EvPartitionRestart,
			Partition: pt.name, Detail: detail})
		pt.restart(mode)
		return
	}
	d := m.recov.RequestRestart(pt.name, mode)
	switch d.Verdict {
	case recovery.VerdictAllow:
		m.traceEvent(Event{Time: m.now, Kind: EvPartitionRestart,
			Partition: pt.name, Detail: detail,
			Latency: tick.Ticks(d.Occupancy)})
		pt.restart(mode)
	default:
		// Deferred or quarantined: the restart storm stops here — the
		// partition idles so healthy partitions keep their windows.
		pt.stop()
	}
}

// stopProcessByName stops a process and terminates its goroutine.
func (pt *Partition) stopProcessByName(name string) {
	proc, err := pt.kernel.Lookup(name)
	if err != nil {
		return
	}
	_ = pt.kernel.Stop(proc.ID)
	pt.killProcess(proc.ID)
}

// Accessors used by tests, diagnostics and the VITRAL front-end.

// Name returns the partition name.
func (pt *Partition) Name() model.PartitionName { return pt.name }

// Mode returns the operating mode M_m(t).
func (pt *Partition) Mode() model.OperatingMode { return pt.mode }

// StartCount returns the number of (re)starts.
func (pt *Partition) StartCount() int { return pt.startCount }

// Kernel exposes the POS kernel (tests/diagnostics).
func (pt *Partition) Kernel() *pos.Kernel { return pt.kernel }

// PAL exposes the PAL instance (tests/diagnostics).
func (pt *Partition) PAL() *pal.PAL { return pt.pal }

// KernelServices returns a kernel-context APEX service facade for the
// partition — the hook used by system-partition tooling, tests and
// ground-command style interaction (e.g. requesting a schedule switch or a
// partition mode change from outside any process). Blocking services return
// InvalidMode on it.
func (pt *Partition) KernelServices() *Services {
	return pt.services(pos.InvalidProcess, nil)
}
