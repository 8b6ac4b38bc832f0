package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// addReference is the map-and-copy Snapshot.Add that Accumulate replaced,
// kept as the oracle for the in-place fold.
func addReference(s, o Snapshot) Snapshot {
	hist := func(a, b HistSnapshot) HistSnapshot {
		t := HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Max: max(a.Max, b.Max)}
		if t.Count > 0 {
			t.Mean = float64(t.Sum) / float64(t.Count)
		}
		if n := max(len(a.Buckets), len(b.Buckets)); n > 0 {
			t.Buckets = make([]uint64, n)
			copy(t.Buckets, a.Buckets)
			for i, v := range b.Buckets {
				t.Buckets[i] += v
			}
		}
		return t
	}
	t := Snapshot{
		Events:            s.Events + o.Events,
		DetectionLatency:  hist(s.DetectionLatency, o.DetectionLatency),
		WindowGap:         hist(s.WindowGap, o.WindowGap),
		MTTR:              hist(s.MTTR, o.MTTR),
		DegradedTicks:     hist(s.DegradedTicks, o.DegradedTicks),
		RestartDeferral:   hist(s.RestartDeferral, o.RestartDeferral),
		RestartsPerWindow: hist(s.RestartsPerWindow, o.RestartsPerWindow),
	}
	if s.Counts != nil || o.Counts != nil {
		t.Counts = map[string]uint64{}
		for name, c := range s.Counts { //air:allow(maprange): commutative map-to-map sum
			t.Counts[name] += c
		}
		for name, c := range o.Counts { //air:allow(maprange): commutative map-to-map sum
			t.Counts[name] += c
		}
	}
	return t
}

func randomHistSnapshot(r *rand.Rand) HistSnapshot {
	h := HistSnapshot{Count: uint64(r.Intn(4))}
	if h.Count == 0 {
		return h
	}
	h.Max = uint64(r.Intn(100))
	h.Sum = h.Count * uint64(r.Intn(50))
	h.Mean = float64(h.Sum) / float64(h.Count)
	h.Buckets = make([]uint64, 1+r.Intn(8))
	for i := range h.Buckets {
		h.Buckets[i] = uint64(r.Intn(3))
	}
	return h
}

// randomMetricsSnapshot draws a snapshot with a nil, empty or populated
// counter map over a few kind names.
func randomMetricsSnapshot(r *rand.Rand) Snapshot {
	s := Snapshot{
		Events:            uint64(r.Intn(100)),
		DetectionLatency:  randomHistSnapshot(r),
		WindowGap:         randomHistSnapshot(r),
		MTTR:              randomHistSnapshot(r),
		DegradedTicks:     randomHistSnapshot(r),
		RestartDeferral:   randomHistSnapshot(r),
		RestartsPerWindow: randomHistSnapshot(r),
	}
	switch r.Intn(3) {
	case 1:
		s.Counts = map[string]uint64{}
	case 2:
		s.Counts = map[string]uint64{}
		for i := r.Intn(5); i > 0; i-- {
			s.Counts[Kind(1+r.Intn(kindCount)).String()] += uint64(1 + r.Intn(9))
		}
	}
	return s
}

// TestAccumulateMatchesReference pins Snapshot.Accumulate and Add to the
// reference over random pairs and left folds, and checks that no fold
// changes its argument, neither by itself nor by later folds into the sum.
func TestAccumulateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mustJSON := func(s Snapshot) string {
		t.Helper()
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	check := func(what string, got, want Snapshot) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: differs from the reference:\n got  %+v\n want %+v", what, got, want)
		}
		if g, w := mustJSON(got), mustJSON(want); g != w {
			t.Fatalf("%s: JSON differs:\n got  %s\n want %s", what, g, w)
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randomMetricsSnapshot(r), randomMetricsSnapshot(r)
		aj, bj := mustJSON(a), mustJSON(b)
		want := addReference(a, b)
		check(fmt.Sprintf("pair %d Add", i), a.Add(b), want)
		var got Snapshot
		got.Accumulate(&a)
		got.Accumulate(&b)
		check(fmt.Sprintf("pair %d", i), got, want)
		got.Accumulate(&b)
		if mustJSON(a) != aj || mustJSON(b) != bj {
			t.Fatalf("pair %d: Accumulate wrote through to an argument", i)
		}
	}
	var got, want Snapshot
	for i := 0; i < 3000; i++ {
		s := randomMetricsSnapshot(r)
		before := mustJSON(s)
		got.Accumulate(&s)
		want = addReference(want, s)
		check(fmt.Sprintf("fold step %d", i), got, want)
		if mustJSON(s) != before {
			t.Fatalf("fold step %d: Accumulate mutated its argument", i)
		}
	}
}
