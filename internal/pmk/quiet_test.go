package pmk

import (
	"testing"

	"air/internal/model"
	"air/internal/tick"
)

// upcomingQuiet counts by brute force how many upcoming Tick calls return
// false before the next preemption point, on a clone so s is untouched.
func upcomingQuiet(s *Scheduler) tick.Ticks {
	c := s.Clone()
	var n tick.Ticks
	for !c.Tick() {
		n++
	}
	return n
}

// TestQuietTicksMatchesTickStream checks QuietTicks against a brute-force
// count of upcoming Tick()==false at every tick of both Fig. 8 schedules,
// across a chi1→chi2 switch requested mid-frame and the switch back, and
// checks that Skip over those ticks leaves exactly the state ticking them
// one by one does.
func TestQuietTicksMatchesTickStream(t *testing.T) {
	_, schedules := compileFig8(t)
	s, err := NewScheduler(schedules)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.QuietTicks(); got != 0 {
		t.Fatalf("QuietTicks before Start = %d, want 0", got)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	const mtf = 1300
	for s.Ticks() < 6*mtf {
		switch s.Ticks() {
		case mtf + 450:
			if err := s.RequestSwitch(1); err != nil {
				t.Fatal(err)
			}
		case 3*mtf + 777:
			if err := s.RequestSwitch(0); err != nil {
				t.Fatal(err)
			}
		}
		want := upcomingQuiet(s)
		got := s.QuietTicks()
		if got != want {
			t.Fatalf("tick %d (%s): QuietTicks = %d, brute force %d",
				s.Ticks(), s.Current().Name, got, want)
		}
		if got > 0 && s.Ticks()%97 == 0 {
			skipped, stepped := s.Clone(), s.Clone()
			skipped.Skip(got)
			for i := tick.Ticks(0); i < got; i++ {
				stepped.Tick()
			}
			if skipped.Ticks() != stepped.Ticks() || skipped.Heir() != stepped.Heir() ||
				skipped.Status() != stepped.Status() || skipped.QuietTicks() != 0 {
				t.Fatalf("tick %d: Skip(%d) state differs from %d Ticks", s.Ticks(), got, got)
			}
			if !skipped.Tick() || !stepped.Tick() || skipped.Heir() != stepped.Heir() {
				t.Fatalf("tick %d: the tick after Skip(%d) is not the same preemption point", s.Ticks(), got)
			}
		}
		s.Tick()
	}
	if s.SwitchCount() != 2 {
		t.Fatalf("switches = %d, want 2", s.SwitchCount())
	}
}

// TestQuietTicksIdleGapsAndMTFChange covers idle preemption points and a
// switch between schedules of different MTFs, where the frame restarts at
// the switch instant.
func TestQuietTicksIdleGapsAndMTFChange(t *testing.T) {
	sys := &model.System{
		Partitions: []model.PartitionName{"A", "B"},
		Schedules: []model.Schedule{
			{
				Name: "gappy", MTF: 100,
				Requirements: []model.Requirement{
					{Partition: "A", Cycle: 100, Budget: 20},
					{Partition: "B", Cycle: 100, Budget: 20},
				},
				Windows: []model.Window{
					{Partition: "A", Offset: 10, Duration: 20},
					{Partition: "B", Offset: 50, Duration: 20},
				},
			},
			{
				Name: "single", MTF: 60,
				Requirements: []model.Requirement{{Partition: "B", Cycle: 60, Budget: 60}},
				Windows:      []model.Window{{Partition: "B", Offset: 0, Duration: 60}},
			},
		},
	}
	var compiled []*CompiledSchedule
	for i := range sys.Schedules {
		cs, err := Compile(sys, &sys.Schedules[i])
		if err != nil {
			t.Fatal(err)
		}
		compiled = append(compiled, cs)
	}
	s, err := NewScheduler(compiled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for s.Ticks() < 700 {
		if s.Ticks() == 230 {
			if err := s.RequestSwitch(1); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := s.QuietTicks(), upcomingQuiet(s); got != want {
			t.Fatalf("tick %d (%s): QuietTicks = %d, brute force %d",
				s.Ticks(), s.Current().Name, got, want)
		}
		s.Tick()
	}
	// A one-point schedule has a single preemption point per frame.
	if s.Current().Name != "single" || s.QuietTicks() != 59-(s.Ticks()-300)%60 {
		t.Fatalf("single-point schedule at %d: QuietTicks = %d", s.Ticks(), s.QuietTicks())
	}
}

// TestQuietTicksInterpretedIsZero keeps the interpreted reference form a
// per-tick oracle: it never reports a quiet tick.
func TestQuietTicksInterpretedIsZero(t *testing.T) {
	_, schedules := compileFig8(t)
	s, err := NewScheduler(schedules)
	if err != nil {
		t.Fatal(err)
	}
	s.UseInterpreted()
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if q := s.QuietTicks(); q != 0 {
			t.Fatalf("tick %d: interpreted QuietTicks = %d, want 0", s.Ticks(), q)
		}
		s.Tick()
	}
}
