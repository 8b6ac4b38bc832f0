package core

import (
	"encoding/binary"
	"sync"
	"testing"

	"air/internal/mmu"
	"air/internal/tick"
)

// counterVA straddles the first two pages of the default data section, so
// every counter store writes two frames.
const counterVA = mmu.VirtAddr(0x0010_0000 + mmu.PageSize - 4)

// counterModule starts a module whose partition A runs one forkable
// periodic process that stores its activation count at counterVA every
// period.
func counterModule(t *testing.T) *Module {
	return startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(func(sv *Services) {
				sv.CreateForkableProcess(periodicTask("count", 100, 5), ForkableBody{
					New:   func() any { return new(uint64) },
					Clone: func(s any) any { n := *s.(*uint64); return &n },
					Run: func(sv *Services, s any) {
						n := s.(*uint64)
						var buf [8]byte
						for {
							*n++
							binary.BigEndian.PutUint64(buf[:], *n)
							sv.MemWrite(counterVA, buf[:])
							sv.PeriodicWait()
						}
					},
				})
				sv.StartProcess("count")
			})},
			{Name: "B", Init: normalInit(nil)},
		},
	})
}

// readCounter reads the counter from A's space at PMK privilege.
func readCounter(m *Module) (uint64, error) {
	var buf [8]byte
	if err := m.Memory().ReadIn("A", counterVA, buf[:], mmu.PrivPMK); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}

// TestForkMemoryIsolation: forks share the parent's memory pages
// copy-on-write, yet every module reads what an unforked reference module
// reads at the same tick. Fork A is taken, the parent steps on (writing the
// pages A shares), fork B is taken, and then A, B and the parent all step
// concurrently.
func TestForkMemoryIsolation(t *testing.T) {
	const last = tick.Ticks(1599)
	ref := counterModule(t)
	want := map[tick.Ticks]uint64{}
	for at := tick.Ticks(399); at <= last; at += 100 {
		runTo(t, ref, at)
		n, err := readCounter(ref)
		if err != nil {
			t.Fatal(err)
		}
		want[at] = n
	}

	forkAt := func(m *Module) *Module {
		t.Helper()
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at %d: %v", m.Now(), err)
		}
		f, err := snap.Fork()
		if err != nil {
			t.Fatalf("Fork at %d: %v", m.Now(), err)
		}
		t.Cleanup(f.Shutdown)
		return f
	}
	parent := counterModule(t)
	runTo(t, parent, 399)
	a := forkAt(parent)
	runTo(t, parent, 699)
	if got, err := readCounter(a); err != nil || got != want[399] {
		t.Fatalf("fork A after the parent stepped to 699 reads %d (%v), want %d", got, err, want[399])
	}
	b := forkAt(parent)

	var wg sync.WaitGroup
	for name, m := range map[string]*Module{"A": a, "B": b, "parent": parent} { //air:allow(maprange): independent goroutines; order-insensitive
		wg.Add(1)
		go func(name string, m *Module) {
			defer wg.Done()
			for at := m.Now(); at <= last; at += 100 {
				if err := m.Run(at - m.Now()); err != nil {
					t.Errorf("%s run to %d: %v", name, at, err)
					return
				}
				got, err := readCounter(m)
				if err != nil || got != want[at] {
					t.Errorf("%s at tick %d reads %d (%v), want %d", name, at, got, err, want[at])
					return
				}
			}
		}(name, m)
	}
	wg.Wait()
}
