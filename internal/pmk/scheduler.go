package pmk

import (
	"errors"
	"fmt"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// Scheduler errors.
var (
	ErrNoSchedules       = errors.New("pmk: no schedules compiled")
	ErrUnknownSchedule   = errors.New("pmk: unknown schedule")
	ErrAlreadyStarted    = errors.New("pmk: scheduler already started")
	ErrNotStarted        = errors.New("pmk: scheduler not started")
	ErrMismatchedModeMTF = errors.New("pmk: schedules disagree on partition set")
)

// ScheduleStatus is the information returned by the ARINC 653 Part 2
// GET_MODULE_SCHEDULE_STATUS service (Sect. 4.2): the time of the last
// schedule switch (0 if none ever occurred), the current schedule, and the
// next schedule (equal to the current one when no change is pending).
type ScheduleStatus struct {
	LastSwitch tick.Ticks
	Current    model.ScheduleID
	Next       model.ScheduleID
}

// Scheduler is the AIR Partition Scheduler featuring mode-based schedules —
// a faithful implementation of Algorithm 1. It is invoked at every system
// clock tick; in the best (and most frequent) case it performs only two
// computations: incrementing the tick counter and testing for a partition
// preemption point.
//
// Two execution forms are supported. The compiled form (the default) runs
// Algorithm 1 over the flat tables built at Compile time — parallel
// offset/heir arrays cached in the scheduler on every schedule activation,
// and a dense pending-action slice indexed by partition ordinal. The
// interpreted form walks the original preemption-point structs and keeps the
// pending actions in a map; it is retained as the executable reference
// semantics that TestCompiledScheduleEquivalence diffs the compiled form
// against, trace-byte for trace-byte.
type Scheduler struct {
	schedules []*CompiledSchedule

	// Algorithm 1 state, named as in the paper.
	ticks           tick.Ticks // global system clock tick counter
	currentSchedule model.ScheduleID
	nextSchedule    model.ScheduleID
	lastSwitch      tick.Ticks // lastScheduleSwitch
	tableIterator   int

	heir        Heir
	started     bool
	everSwitch  bool
	switchCount int

	// Hot cache of the active schedule's flat tables, refreshed by activate
	// on Start and on every schedule-switch commit: the Tick fast path reads
	// these three fields and nothing else.
	mtf     tick.Ticks
	offsets []tick.Ticks
	heirs   []Heir

	// Compiled-form pending actions: dense slice indexed by partition
	// ordinal (0 = none armed), with the ordinal table shared read-only
	// from the compiled schedules.
	partNames    []model.PartitionName
	pendingActs  []model.ScheduleChangeAction
	pendingCount int

	// interpreted selects the reference execution form.
	interpreted bool
	// pendingActions is the interpreted form's pending-action store,
	// keeping the pre-compilation semantics bit-for-bit.
	pendingActions map[model.PartitionName]model.ScheduleChangeAction

	obs obs.Emitter
}

// NewScheduler creates a Scheduler over the compiled schedules. Schedule IDs
// are indices into the slice; index 0 is the initial schedule.
func NewScheduler(schedules []*CompiledSchedule) (*Scheduler, error) {
	if len(schedules) == 0 {
		return nil, ErrNoSchedules
	}
	names := schedules[0].partNames
	for _, cs := range schedules[1:] {
		if len(cs.partNames) != len(names) {
			return nil, ErrMismatchedModeMTF
		}
		for i := range names {
			if cs.partNames[i] != names[i] {
				return nil, ErrMismatchedModeMTF
			}
		}
	}
	s := &Scheduler{
		schedules:      schedules,
		partNames:      names,
		pendingActs:    make([]model.ScheduleChangeAction, len(names)),
		pendingActions: make(map[model.PartitionName]model.ScheduleChangeAction),
	}
	s.activate(schedules[0])
	return s, nil
}

// UseInterpreted switches the scheduler to the interpreted reference form.
// It must be called before Start.
func (s *Scheduler) UseInterpreted() { s.interpreted = true }

// Interpreted reports whether the scheduler runs the interpreted form.
func (s *Scheduler) Interpreted() bool { return s.interpreted }

// activate caches the flat tables of the schedule now in force.
func (s *Scheduler) activate(cs *CompiledSchedule) {
	s.mtf = cs.MTF
	s.offsets = cs.offsets
	s.heirs = cs.heirs
}

// Start primes the scheduler at tick 0: the first preemption point (offset 0)
// of the initial schedule is taken immediately, as the system bootstrap
// dispatches the first partition before the first clock interrupt.
func (s *Scheduler) Start() (Heir, error) {
	if s.started {
		return Heir{}, ErrAlreadyStarted
	}
	s.started = true
	cs := s.schedules[s.currentSchedule]
	s.activate(cs)
	s.heir = cs.Points[0].Heir
	s.tableIterator = 1 % len(cs.Points)
	return s.heir, nil
}

// Tick is Algorithm 1, executed at every system clock tick. It returns true
// when a partition preemption point was reached (the heir may have changed —
// the Dispatcher must run), false in the frequent fast-path case.
//
//air:hotpath
func (s *Scheduler) Tick() bool {
	// Line 1: increment the global system clock tick counter.
	s.ticks++
	if s.interpreted {
		return s.tickInterpreted() //air:allow(call): ablation branch — the interpreted reference scheduler is never the production configuration
	}
	// Line 2: partition preemption point test against ticks elapsed since
	// the last schedule switch — one compare over the cached flat table.
	off := (s.ticks - s.lastSwitch) % s.mtf
	if s.offsets[s.tableIterator] != off {
		return false
	}
	// Line 3: pending schedule switch takes effect only at the end of the
	// MTF.
	if s.currentSchedule != s.nextSchedule && off == 0 {
		s.commitSwitch() //air:allow(call): schedule switches are rare mode changes, not per-tick work
	}
	// Line 8: select the heir partition.
	s.heir = s.heirs[s.tableIterator]
	// Line 9: advance the table iterator modulo the number of partition
	// preemption points.
	s.tableIterator++
	if s.tableIterator == len(s.offsets) {
		s.tableIterator = 0
	}
	s.obs.Emit(obs.Event{Time: s.ticks, Kind: obs.KindHeirSelection, Partition: s.heir.Partition})
	return true
}

// QuietTicks returns how many upcoming ticks hold no partition preemption
// point: Tick would return false on each of them and change nothing but the
// tick counter. It reads the compiled offset table — the distance from the
// current MTF offset to the offset the table iterator points at — so a
// caller can account those ticks at once with Skip. A pending schedule
// switch needs no check: it commits only at offset 0, which is always a
// preemption point. The interpreted reference form reports 0, so a module
// running it still steps every tick and stays the per-tick oracle the
// compiled form is diffed against.
func (s *Scheduler) QuietTicks() tick.Ticks {
	if s.interpreted || !s.started {
		return 0
	}
	off := (s.ticks - s.lastSwitch) % s.mtf
	gap := (s.offsets[s.tableIterator] - off + s.mtf) % s.mtf
	if gap == 0 {
		gap = s.mtf
	}
	return gap - 1
}

// Skip accounts n quiet ticks at once: the same state as n calls to Tick
// that each return false. n must not exceed QuietTicks.
func (s *Scheduler) Skip(n tick.Ticks) { s.ticks += n }

// commitSwitch performs Algorithm 1 lines 4–6 in compiled form and arms the
// dense per-partition restart actions for the new schedule; the Dispatcher
// performs each partition's action the first time that partition is
// dispatched under the new schedule (Sect. 4.3).
func (s *Scheduler) commitSwitch() {
	s.currentSchedule = s.nextSchedule
	s.lastSwitch = s.ticks
	s.tableIterator = 0
	s.everSwitch = true
	s.switchCount++
	cs := s.schedules[s.currentSchedule]
	s.activate(cs)
	for ord, action := range cs.actionByOrd {
		if action == 0 {
			continue
		}
		if s.pendingActs[ord] == 0 {
			s.pendingCount++
		}
		s.pendingActs[ord] = action
	}
}

// tickInterpreted is the pre-compilation Algorithm 1 body, retained verbatim
// as the reference semantics for the golden equivalence test. The tick
// counter has already been incremented by Tick.
func (s *Scheduler) tickInterpreted() bool {
	cs := s.schedules[s.currentSchedule]
	// Line 2: partition preemption point test.
	if cs.Points[s.tableIterator].Offset != (s.ticks-s.lastSwitch)%cs.MTF {
		return false
	}
	// Line 3: pending schedule switch takes effect only at the end of the
	// MTF.
	if s.currentSchedule != s.nextSchedule && (s.ticks-s.lastSwitch)%cs.MTF == 0 {
		// Lines 4–6.
		s.currentSchedule = s.nextSchedule
		s.lastSwitch = s.ticks
		s.tableIterator = 0
		s.everSwitch = true
		s.switchCount++
		cs = s.schedules[s.currentSchedule]
		for p, action := range cs.ChangeActions { //air:allow(maprange): map-to-map copy; order-insensitive
			s.pendingActions[p] = action
		}
	}
	// Line 8: select the heir partition.
	s.heir = cs.Points[s.tableIterator].Heir
	// Line 9: advance the table iterator modulo the number of partition
	// preemption points.
	s.tableIterator = (s.tableIterator + 1) % len(cs.Points)
	s.obs.Emit(obs.Event{Time: s.ticks, Kind: obs.KindHeirSelection, Partition: s.heir.Partition})
	return true
}

// AttachObs publishes every partition preemption point's heir selection as
// a KindHeirSelection event on the module's observability spine (the
// partition field is empty when the heir is the idle window).
func (s *Scheduler) AttachObs(em obs.Emitter) { s.obs = em }

// Heir returns the current heir partition.
func (s *Scheduler) Heir() Heir { return s.heir }

// Ticks returns the global system clock tick counter.
func (s *Scheduler) Ticks() tick.Ticks { return s.ticks }

// RequestSwitch stores the identifier of the schedule that will start
// executing at the top of the next MTF — the SET_MODULE_SCHEDULE APEX
// service (Sect. 4.2): "the immediate result is only that of storing the
// identifier of the next schedule".
func (s *Scheduler) RequestSwitch(id model.ScheduleID) error {
	if id < 0 || int(id) >= len(s.schedules) {
		return fmt.Errorf("%w: %d", ErrUnknownSchedule, id)
	}
	s.nextSchedule = id
	return nil
}

// Status implements GET_MODULE_SCHEDULE_STATUS (Sect. 4.2).
func (s *Scheduler) Status() ScheduleStatus {
	last := tick.Ticks(0)
	if s.everSwitch {
		last = s.lastSwitch
	}
	return ScheduleStatus{
		LastSwitch: last,
		Current:    s.currentSchedule,
		Next:       s.nextSchedule,
	}
}

// Current returns the compiled schedule currently in force.
func (s *Scheduler) Current() *CompiledSchedule {
	return s.schedules[s.currentSchedule]
}

// ScheduleCount returns the number of compiled schedules.
func (s *Scheduler) ScheduleCount() int { return len(s.schedules) }

// SwitchCount returns how many schedule switches became effective.
func (s *Scheduler) SwitchCount() int { return s.switchCount }

// ConsumePendingAction returns and clears the pending schedule change action
// for a partition, if any. The Dispatcher calls this when the partition is
// first dispatched after a switch.
func (s *Scheduler) ConsumePendingAction(p model.PartitionName) (model.ScheduleChangeAction, bool) {
	if s.interpreted {
		action, ok := s.pendingActions[p]
		if ok {
			delete(s.pendingActions, p)
		}
		return action, ok
	}
	for ord, n := range s.partNames {
		if n != p {
			continue
		}
		if s.pendingActs[ord] == 0 {
			return 0, false
		}
		action := s.pendingActs[ord]
		s.pendingActs[ord] = 0
		s.pendingCount--
		return action, true
	}
	return 0, false
}

// PendingActionCount returns the number of partitions with unconsumed change
// actions (those not yet dispatched since the last switch).
func (s *Scheduler) PendingActionCount() int {
	if s.interpreted {
		return len(s.pendingActions)
	}
	return s.pendingCount
}

// Clone returns a deep copy of the scheduler's mutable Algorithm 1 state.
// The compiled schedules (and the flat tables inside them) are immutable
// after Compile and shared read-only with the clone; the observability
// emitter is NOT carried over — the forked module attaches its own.
func (s *Scheduler) Clone() *Scheduler {
	c := *s
	c.pendingActs = make([]model.ScheduleChangeAction, len(s.pendingActs))
	copy(c.pendingActs, s.pendingActs)
	c.pendingActions = make(map[model.PartitionName]model.ScheduleChangeAction, len(s.pendingActions))
	for p, a := range s.pendingActions { //air:allow(maprange): map-to-map copy; order-insensitive
		c.pendingActions[p] = a
	}
	c.obs = obs.Emitter{}
	return &c
}
