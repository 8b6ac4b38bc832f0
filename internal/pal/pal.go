package pal

import (
	"air/internal/hm"
	"air/internal/model"
	"air/internal/pos"
	"air/internal/tick"
)

// Violation is one detected process deadline violation, produced by the
// Algorithm 3 verification loop together with the Health Monitor's decision.
type Violation struct {
	Entry    Entry
	Detected tick.Ticks
	Decision hm.Decision
}

// HealthReporter is the slice of the Health Monitor the PAL needs: the
// HM_DEADLINEVIOLATED primitive of Algorithm 3 line 6.
type HealthReporter interface {
	ReportProcess(p model.PartitionName, process string, code hm.ErrorCode, msg string) hm.Decision
}

// PAL is the POS Adaptation Layer instance of one partition: it wraps the
// partition's POS kernel, implements the pos.DeadlineObserver interface the
// APEX primitives use to register/update/unregister deadlines (Sect. 5.2,
// Fig. 6), and verifies deadlines inside the surrogate clock tick
// announcement routine (Sect. 5.3, Fig. 7, Algorithm 3).
type PAL struct {
	partition model.PartitionName
	kernel    *pos.Kernel
	queue     DeadlineQueue
	health    HealthReporter
	now       func() tick.Ticks
}

var _ pos.DeadlineObserver = (*PAL)(nil)

// Config configures a PAL instance.
type Config struct {
	Partition model.PartitionName
	// Queue holds the deadline control structure; nil defaults to the
	// production ListQueue.
	Queue DeadlineQueue
	// Health receives HM_DEADLINEVIOLATED reports; nil disables reporting
	// (violations are still detected and returned).
	Health HealthReporter
	// Now supplies PAL_GETCURRENTTIME.
	Now func() tick.Ticks
}

// New creates a PAL. Attach the kernel afterwards with Bind (the kernel needs
// the PAL as its observer, so construction is two-phase).
func New(cfg Config) *PAL {
	if cfg.Queue == nil {
		cfg.Queue = NewListQueue()
	}
	if cfg.Now == nil {
		cfg.Now = func() tick.Ticks { return 0 }
	}
	return &PAL{
		partition: cfg.Partition,
		queue:     cfg.Queue,
		health:    cfg.Health,
		now:       cfg.Now,
	}
}

// Bind attaches the POS kernel whose clock announcements this PAL surrogates.
func (p *PAL) Bind(k *pos.Kernel) { p.kernel = k }

// Clone returns a copy of the PAL for module snapshot/fork, with the
// deadline queue deep-copied and the health reporter and clock rebound to
// the fork's instances. Bind the fork's kernel clone afterwards — the same
// two-phase construction as New, because kernel and PAL reference each
// other.
func (p *PAL) Clone(health HealthReporter, now func() tick.Ticks) *PAL {
	return &PAL{
		partition: p.partition,
		queue:     p.queue.Clone(),
		health:    health,
		now:       now,
	}
}

// Kernel returns the bound POS kernel.
func (p *PAL) Kernel() *pos.Kernel { return p.kernel }

// Partition returns the owning partition.
func (p *PAL) Partition() model.PartitionName { return p.partition }

// SetDeadline implements pos.DeadlineObserver: the register/update interface
// provided to the APEX services (Fig. 6).
func (p *PAL) SetDeadline(id pos.ProcessID, name string, deadline tick.Ticks) {
	p.queue.Register(Entry{PID: id, Name: name, Deadline: deadline})
}

// ClearDeadline implements pos.DeadlineObserver: the unregister interface.
func (p *PAL) ClearDeadline(id pos.ProcessID) {
	p.queue.Unregister(id)
}

// Deadlines returns the registered deadlines in ascending order.
func (p *PAL) Deadlines() []Entry { return p.queue.Entries() }

// Pending returns the number of registered deadlines.
func (p *PAL) Pending() int { return p.queue.Len() }

// EarliestDeadline returns the earliest registered deadline, in O(1) on
// the list and heap queues. TickAnnounce reports no violation at any tick up
// to and including it.
func (p *PAL) EarliestDeadline() (tick.Ticks, bool) {
	e, ok := p.queue.Earliest()
	return e.Deadline, ok
}

// TickAnnounce is the modified surrogate clock tick announcement routine of
// Fig. 7 and Algorithm 3. It is invoked by the core kernel with elapsed = 1
// on every tick the partition is active, and with the number of ticks elapsed
// since the partition last ran when the partition is (re-)dispatched — which
// is how a deadline exceeded while the partition was inactive is detected at
// the earliest possible instant.
//
// Steps, exactly as Algorithm 3:
//  1. announce the elapsed clock ticks to the native POS
//     (*POS_CLOCKTICKANNOUNCE), releasing delays and periodic processes;
//  2. verify the earliest deadline(s): while the earliest registered
//     deadline is before the current time, report HM_DEADLINEVIOLATED and
//     remove the deadline (O(1) per the queue's contract);
//  3. stop at the first deadline that has not been missed.
func (p *PAL) TickAnnounce(elapsed tick.Ticks) []Violation {
	now := p.now()
	if p.kernel != nil {
		p.kernel.ClockAnnounce(now)
	}
	_ = elapsed // elapsed is announced to the POS via now; kept for fidelity
	var violations []Violation
	for {
		e, ok := p.queue.Earliest()
		if !ok || e.Deadline >= now {
			// Algorithm 3 line 3–4: earliest deadline not missed → break.
			break
		}
		var decision hm.Decision
		if p.health != nil {
			decision = p.health.ReportProcess(
				p.partition, e.Name, hm.ErrDeadlineMissed, "process deadline violated")
		}
		p.queue.RemoveEarliest()
		violations = append(violations, Violation{
			Entry:    e,
			Detected: now,
			Decision: decision,
		})
	}
	return violations
}

// ViolationSet evaluates eq. (24) over the registered deadlines: the set of
// processes whose absolute deadline time is strictly before t. Unlike
// TickAnnounce it does not mutate the queue or report to HM — it is the
// model-level predicate, used by verification tooling and tests.
func (p *PAL) ViolationSet(t tick.Ticks) []Entry {
	var out []Entry
	for _, e := range p.queue.Entries() {
		if e.Deadline < t {
			out = append(out, e)
		}
	}
	return out
}
