package obs

import (
	"reflect"
	"testing"

	"air/internal/tick"
)

// sinkFunc adapts a function to the Sink interface for test capture.
type sinkFunc func(Event)

func (f sinkFunc) Emit(e Event) { f(e) }

func mkEvent(i int) Event {
	return Event{Time: tick.Ticks(i), Kind: KindDeadlineMiss, Partition: "P1"}
}

// TestBatchFlushPreservesOrder pins the batching contract: a batched bus
// delivers the identical event sequence to its sinks as an unbatched one,
// regardless of where the Flush boundaries fall.
func TestBatchFlushPreservesOrder(t *testing.T) {
	const total = 3*batchCapacity + 17 // forces two capacity-full early flushes
	batched, plain := NewBus(), NewBus()
	var got, want []Event
	batched.Attach(sinkFunc(func(e Event) { got = append(got, e) }))
	plain.Attach(sinkFunc(func(e Event) { want = append(want, e) }))
	batched.SetBatching(true)

	for i := 0; i < total; i++ {
		e := mkEvent(i)
		batched.Emit(e)
		plain.Emit(e)
		if i%97 == 0 {
			batched.Flush() // window boundaries at arbitrary offsets
		}
	}
	batched.Flush()

	if len(got) != total {
		t.Fatalf("batched sink saw %d events, want %d", len(got), total)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batched delivery reordered or altered events")
	}
	if batched.Snapshot().Counts != nil && plain.Snapshot().Counts != nil &&
		!reflect.DeepEqual(batched.Snapshot().Counts, plain.Snapshot().Counts) {
		t.Fatal("batched metrics diverged from per-event metrics")
	}
}

// TestRingWrapAcrossBatchFlush drives a small ring sink through a batched
// bus so the ring wraps several times, with wrap points landing both inside
// staged batches and exactly on flush boundaries. The retained window must
// equal the last-capacity suffix of the emission sequence, oldest first.
func TestRingWrapAcrossBatchFlush(t *testing.T) {
	const ringCap = 7 // coprime with the flush strides below: wrap points sweep every offset
	for _, stride := range []int{1, 3, ringCap, ringCap + 1, 2 * ringCap} {
		bus := NewBus()
		ring := NewRing(ringCap)
		bus.Attach(ring)
		bus.SetBatching(true)

		const total = 6*ringCap + 5
		for i := 0; i < total; i++ {
			bus.Emit(mkEvent(i))
			if (i+1)%stride == 0 {
				bus.Flush()
			}
		}
		bus.Flush()

		if ring.Len() != ringCap {
			t.Fatalf("stride %d: ring retains %d events, want %d", stride, ring.Len(), ringCap)
		}
		events := ring.Events()
		for j, e := range events {
			if want := tick.Ticks(total - ringCap + j); e.Time != want {
				t.Fatalf("stride %d: retained[%d].Time = %d, want %d (wrap lost ordering)",
					stride, j, e.Time, want)
			}
		}

		// A clone taken mid-wrap must be positionally identical and isolated.
		clone := ring.Clone()
		if !reflect.DeepEqual(clone.Events(), events) {
			t.Fatalf("stride %d: clone events differ from original", stride)
		}
		bus.Emit(mkEvent(total))
		bus.Flush()
		if reflect.DeepEqual(clone.Events(), ring.Events()) {
			t.Fatalf("stride %d: clone tracked the original after cloning", stride)
		}
	}
}

// TestSetBatchingFlushesOnDisable pins the no-event-loss guarantee of
// toggling batching off with events still staged.
func TestSetBatchingFlushesOnDisable(t *testing.T) {
	bus := NewBus()
	var got []Event
	bus.Attach(sinkFunc(func(e Event) { got = append(got, e) }))
	bus.SetBatching(true)
	for i := 0; i < 5; i++ {
		bus.Emit(mkEvent(i))
	}
	if len(got) != 0 {
		t.Fatalf("events delivered while staged: %d", len(got))
	}
	bus.SetBatching(false)
	if len(got) != 5 {
		t.Fatalf("disable delivered %d staged events, want 5", len(got))
	}
	if bus.Batching() {
		t.Fatal("bus still batching after disable")
	}
}

// TestBatchingAllocatesOnFirstEmit pins the lazy staging buffer: enabling
// batching allocates nothing, the buffer grows on staged emits but never
// past batchCapacity, and every event still reaches the sink in FIFO order
// across the capacity-full early flushes.
func TestBatchingAllocatesOnFirstEmit(t *testing.T) {
	bus := NewBus()
	if allocs := testing.AllocsPerRun(100, func() { bus.SetBatching(true) }); allocs != 0 {
		t.Fatalf("SetBatching(true) allocates %.1f/op, want 0", allocs)
	}
	if !bus.Batching() {
		t.Fatal("Batching() = false after SetBatching(true)")
	}
	if bus.staged != nil {
		t.Fatalf("staging buffer allocated before the first emit (cap %d)", cap(bus.staged))
	}
	var got []Event
	bus.Attach(sinkFunc(func(e Event) { got = append(got, e) }))
	const total = 1500
	for i := 0; i < total; i++ {
		bus.Emit(mkEvent(i))
		if c := cap(bus.staged); c > batchCapacity {
			t.Fatalf("after %d emits the staging buffer has capacity %d, above %d", i+1, c, batchCapacity)
		}
	}
	bus.Flush()
	if len(got) != total {
		t.Fatalf("sink saw %d events, want %d", len(got), total)
	}
	for i, e := range got {
		if e != mkEvent(i) {
			t.Fatalf("event %d out of order: got time %d", i, e.Time)
		}
	}
}
