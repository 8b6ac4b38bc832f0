package timeline

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// addReference is the map-and-sort Snapshot.Add that mergeByKey replaced,
// kept verbatim with its key functions as the oracle for entry order and
// folding.
func addReference(s, o Snapshot) Snapshot {
	out := Snapshot{
		Ticks:            s.Ticks + o.Ticks,
		Schedule:         s.Schedule,
		DeadlineMisses:   s.DeadlineMisses + o.DeadlineMisses,
		EarlyWarnings:    s.EarlyWarnings + o.EarlyWarnings,
		EarlyWarningLead: s.EarlyWarningLead.Add(o.EarlyWarningLead),
		ModelViolations:  s.ModelViolations + o.ModelViolations,
		Response:         s.Response.Add(o.Response),
		Jitter:           s.Jitter.Add(o.Jitter),
		Slack:            s.Slack.Add(o.Slack),
	}
	if out.Schedule == "" {
		out.Schedule = o.Schedule
	} else if o.Schedule != "" && o.Schedule != out.Schedule {
		out.Schedule = "mixed"
	}
	if s.Archive != nil || o.Archive != nil {
		var a ArchiveSnap
		for _, in := range []*ArchiveSnap{s.Archive, o.Archive} {
			if in != nil {
				a.Segments += in.Segments
				a.Bytes += in.Bytes
				a.Records += in.Records
			}
		}
		out.Archive = &a
	}

	parts := make(map[string]PartSnap, len(s.Partitions)+len(o.Partitions))
	for _, lst := range [][]PartSnap{s.Partitions, o.Partitions} {
		for _, p := range lst {
			k := partSnapKey(p)
			if have, ok := parts[k]; ok {
				have.Windows += p.Windows
				have.Supplied += p.Supplied
				have.Shortfalls += p.Shortfalls
				have.LastCycleSupplied = p.LastCycleSupplied
				if have.CycleTicks == 0 {
					have.CycleTicks, have.BudgetTicks = p.CycleTicks, p.BudgetTicks
				}
				parts[k] = have
			} else {
				parts[k] = p
			}
		}
	}
	for _, p := range parts { //air:allow(maprange): collected into a slice and sorted below
		out.Partitions = append(out.Partitions, p)
	}
	sort.Slice(out.Partitions, func(i, j int) bool {
		return partSnapKey(out.Partitions[i]) < partSnapKey(out.Partitions[j])
	})
	if out.Ticks > 0 {
		for i := range out.Partitions {
			out.Partitions[i].Utilization =
				float64(out.Partitions[i].Supplied) / float64(out.Ticks)
		}
	}

	procs := make(map[string]ProcSnap, len(s.Processes)+len(o.Processes))
	for _, lst := range [][]ProcSnap{s.Processes, o.Processes} {
		for _, p := range lst {
			k := procSnapKey(p)
			if have, ok := procs[k]; ok {
				have.Releases += p.Releases
				have.Completions += p.Completions
				have.Misses += p.Misses
				have.Warnings += p.Warnings
				have.Response = have.Response.Add(p.Response)
				have.Jitter = have.Jitter.Add(p.Jitter)
				have.Slack = have.Slack.Add(p.Slack)
				procs[k] = have
			} else {
				procs[k] = p
			}
		}
	}
	for _, p := range procs { //air:allow(maprange): collected into a slice and sorted below
		out.Processes = append(out.Processes, p)
	}
	sort.Slice(out.Processes, func(i, j int) bool {
		return procSnapKey(out.Processes[i]) < procSnapKey(out.Processes[j])
	})
	return out
}

func partSnapKey(p PartSnap) string {
	return string(rune('0'+p.Core)) + "/" + p.Partition
}

func procSnapKey(p ProcSnap) string {
	return string(rune('0'+p.Core)) + "/" + p.Partition + "/" + p.Process
}

// Names with bytes below '/' (the key separator) sort differently by key
// bytes than by (partition, process) tuple, and cores ≥ 10 map to key runes
// past '9'; both must keep the reference order.
var (
	mergeNames = []string{"", "!", "-", ".", "a", "a.b", "a-b", "a/b", "a", "ab", "P1", "P10", "P2"}
	mergeCores = []int{0, 1, 9, 10, 11, 42, -1, 1 << 20, 1<<32 + 1}
)

func randomHist(r *rand.Rand) HistSnap {
	h := HistSnap{Count: uint64(r.Intn(4))}
	if h.Count == 0 {
		return h
	}
	h.Min, h.Max = uint64(r.Intn(10)), uint64(10+r.Intn(100))
	h.Sum = h.Count * h.Min
	h.Mean = float64(h.Sum) / float64(h.Count)
	h.Buckets = make([]uint64, 1+r.Intn(5))
	for i := range h.Buckets {
		h.Buckets[i] = uint64(r.Intn(3))
	}
	return h
}

// randomSnapshot draws a snapshot whose entries may repeat keys, as a fold
// over many runs' snapshots and hand-built inputs can.
func randomSnapshot(r *rand.Rand) Snapshot {
	s := Snapshot{Ticks: uint64(r.Intn(3) * 1300), Schedule: []string{"", "chi1", "chi2"}[r.Intn(3)]}
	for i := r.Intn(8); i > 0; i-- {
		s.Partitions = append(s.Partitions, PartSnap{
			Core:              mergeCores[r.Intn(len(mergeCores))],
			Partition:         mergeNames[r.Intn(len(mergeNames))],
			Windows:           uint64(r.Intn(5)),
			Supplied:          uint64(r.Intn(500)),
			Utilization:       r.Float64(),
			CycleTicks:        uint64(r.Intn(2) * 1300),
			BudgetTicks:       uint64(r.Intn(300)),
			LastCycleSupplied: uint64(r.Intn(300)),
			Shortfalls:        uint64(r.Intn(2)),
		})
	}
	for i := r.Intn(10); i > 0; i-- {
		s.Processes = append(s.Processes, ProcSnap{
			Core:        mergeCores[r.Intn(len(mergeCores))],
			Partition:   mergeNames[r.Intn(len(mergeNames))],
			Process:     mergeNames[r.Intn(len(mergeNames))],
			Releases:    uint64(r.Intn(9)),
			Completions: uint64(r.Intn(9)),
			Misses:      uint64(r.Intn(2)),
			Warnings:    uint64(r.Intn(2)),
			Response:    randomHist(r),
			Jitter:      randomHist(r),
			Slack:       randomHist(r),
		})
	}
	return s
}

// TestAddMatchesReference pins Snapshot.Add to the map-and-sort reference:
// the same entries, folded the same way, in the same order, and the same
// JSON bytes — over random snapshots with repeated keys, separator-adjacent
// names and multi-digit cores, and over left folds like a campaign's.
func TestAddMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	same := func(t *testing.T, what string, got, want Snapshot) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Add differs from the reference:\n got  %+v\n want %+v", what, got, want)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("%s: JSON differs:\n got  %s\n want %s", what, gj, wj)
		}
	}
	same(t, "two empty snapshots", Snapshot{}.Add(Snapshot{}), addReference(Snapshot{}, Snapshot{}))
	for i := 0; i < 2000; i++ {
		a, b := randomSnapshot(r), randomSnapshot(r)
		same(t, fmt.Sprintf("pair %d", i), a.Add(b), addReference(a, b))
	}
	var got, want Snapshot
	for i := 0; i < 50; i++ {
		s := randomSnapshot(r)
		got, want = got.Add(s), addReference(want, s)
		same(t, fmt.Sprintf("fold step %d", i), got, want)
	}
}

// TestAccumulateMatchesReference pins the in-place fold to the same
// reference: Accumulate of a pair into a zero Snapshot and a left fold of
// Accumulate calls give the reference's entries and JSON, and no argument's
// JSON changes, neither by its own fold nor by later folds into the sum.
func TestAccumulateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
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
			t.Fatalf("%s: Accumulate differs from the reference:\n got  %+v\n want %+v", what, got, want)
		}
		if g, w := mustJSON(got), mustJSON(want); g != w {
			t.Fatalf("%s: JSON differs:\n got  %s\n want %s", what, g, w)
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randomSnapshot(r), randomSnapshot(r)
		aj, bj := mustJSON(a), mustJSON(b)
		want := addReference(a, b)
		var got Snapshot
		got.Accumulate(&a)
		got.Accumulate(&b)
		check(fmt.Sprintf("pair %d", i), got, want)
		got.Accumulate(&b) // folding more into the sum must not write through to a or b
		if mustJSON(a) != aj || mustJSON(b) != bj {
			t.Fatalf("pair %d: Accumulate mutated an argument", i)
		}
	}
	var got, want Snapshot
	for i := 0; i < 250; i++ {
		s := randomSnapshot(r)
		before := mustJSON(s)
		got.Accumulate(&s)
		want = addReference(want, s)
		if i%5 == 4 { // the fold grows to about 1,000 entries: compare every 5th step
			check(fmt.Sprintf("fold step %d", i), got, want)
		}
		if mustJSON(s) != before {
			t.Fatalf("fold step %d: Accumulate mutated its argument", i)
		}
	}
}
