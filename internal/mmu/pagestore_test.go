package mmu

import (
	"bytes"
	"errors"
	"testing"

	"air/internal/model"
)

// dataVA is the first page of P1's four-page data section in newMapped.
const dataVA = VirtAddr(0x0001_0000)

func readAt(t *testing.T, m *MMU, p model.PartitionName, va VirtAddr, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := m.ReadIn(p, va, buf, PrivApp); err != nil {
		t.Fatalf("ReadIn(%s, 0x%08x): %v", p, uint32(va), err)
	}
	return buf
}

func writeAt(t *testing.T, m *MMU, p model.PartitionName, va VirtAddr, data []byte) {
	t.Helper()
	if err := m.WriteIn(p, va, data, PrivApp); err != nil {
		t.Fatalf("WriteIn(%s, 0x%08x): %v", p, uint32(va), err)
	}
}

// TestCloneWritesIsolated: a clone starts with the parent's bytes, and a
// write in one clone is seen neither by the parent nor by a sibling clone.
func TestCloneWritesIsolated(t *testing.T) {
	parent := newMapped(t)
	writeAt(t, parent, "P1", dataVA, []byte("parent"))
	a, b := parent.Clone(), parent.Clone()
	writeAt(t, a, "P1", dataVA, []byte("fork-a"))
	writeAt(t, b, "P1", dataVA+3, []byte("B"))
	writeAt(t, b, "P2", dataVA, []byte("only-b"))

	for _, tc := range []struct {
		name string
		m    *MMU
		p    model.PartitionName
		want string
	}{
		{"parent P1", parent, "P1", "parent"},
		{"clone a P1", a, "P1", "fork-a"},
		{"clone b P1", b, "P1", "parBnt"},
		{"parent P2", parent, "P2", "\x00\x00\x00\x00\x00\x00"},
		{"clone a P2", a, "P2", "\x00\x00\x00\x00\x00\x00"},
		{"clone b P2", b, "P2", "only-b"},
	} {
		if got := readAt(t, tc.m, tc.p, dataVA, 6); string(got) != tc.want {
			t.Errorf("%s = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFreezeIsolatesEarlierClones: once frozen, a parent that writes again
// copies the page first, so clones taken before the freeze keep the old
// bytes while clones taken after see the new ones.
func TestFreezeIsolatesEarlierClones(t *testing.T) {
	parent := newMapped(t)
	writeAt(t, parent, "P1", dataVA, []byte("first"))
	early := parent.Clone()
	parent.Freeze()
	writeAt(t, parent, "P1", dataVA, []byte("secnd"))
	writeAt(t, parent, "P1", dataVA, []byte("third")) // now owned: in place
	late := parent.Clone()
	parent.Freeze()
	writeAt(t, parent, "P1", dataVA, []byte("forth"))

	for _, tc := range []struct {
		name string
		m    *MMU
		want string
	}{
		{"parent", parent, "forth"},
		{"early clone", early, "first"},
		{"late clone", late, "third"},
	} {
		if got := readAt(t, tc.m, "P1", dataVA, 5); string(got) != tc.want {
			t.Errorf("%s = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestUnwrittenFramesReadZero: a mapped frame nobody wrote reads as zero in
// the MMU and its clones, and reading it allocates nothing.
func TestUnwrittenFramesReadZero(t *testing.T) {
	m := newMapped(t)
	whole := 4 * PageSize
	zero := make([]byte, whole)
	if got := readAt(t, m, "P1", dataVA, whole); !bytes.Equal(got, zero) {
		t.Error("unwritten data section does not read as zero")
	}
	if got := readAt(t, m.Clone(), "P1", dataVA, whole); !bytes.Equal(got, zero) {
		t.Error("unwritten data section does not read as zero in a clone")
	}
	buf := make([]byte, 2*PageSize)
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.ReadIn("P1", dataVA+PageSize/2, buf, PrivApp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("reading unwritten frames costs %v allocs, want 0", allocs)
	}
}

// TestCrossPageSharedAndOwned: an access spanning a shared page and an
// owned one reads both halves and writes both without touching the parent.
func TestCrossPageSharedAndOwned(t *testing.T) {
	parent := newMapped(t)
	page0 := bytes.Repeat([]byte{0x11}, PageSize)
	page1 := bytes.Repeat([]byte{0x22}, PageSize)
	writeAt(t, parent, "P1", dataVA, page0)
	writeAt(t, parent, "P1", dataVA+PageSize, page1)
	c := parent.Clone()
	writeAt(t, c, "P1", dataVA+PageSize+8, []byte{0x33}) // clone now owns page 1

	span := dataVA + PageSize - 4
	want := []byte{0x11, 0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x33}
	if got := readAt(t, c, "P1", span, len(want)); !bytes.Equal(got, want) {
		t.Errorf("spanning read = % x, want % x", got, want)
	}
	data := []byte("0123456789abc")
	writeAt(t, c, "P1", span, data)
	if got := readAt(t, c, "P1", span, len(data)); !bytes.Equal(got, data) {
		t.Errorf("spanning write read back = %q, want %q", got, data)
	}
	if got := readAt(t, parent, "P1", dataVA, 2*PageSize); !bytes.Equal(got, append(page0, page1...)) {
		t.Error("spanning write in the clone reached the parent")
	}
}

// TestDefaultLayoutPhysAddrs pins frame numbering for the kernel's default
// four-partition layout (16 code, 64 data, 16 stack pages each): frames are
// numbered in mapping order from physical address 0, so partition k's
// section pages sit at fixed physical addresses, clones included.
func TestDefaultLayoutPhysAddrs(t *testing.T) {
	descs := []Descriptor{
		{Section: SectionCode, Base: 0x0000_0000, Size: 16 * PageSize, AppPerms: Read | Execute, POSPerms: Read | Execute},
		{Section: SectionData, Base: 0x0010_0000, Size: 64 * PageSize, AppPerms: Read | Write, POSPerms: Read | Write},
		{Section: SectionStack, Base: 0x0020_0000, Size: 16 * PageSize, AppPerms: Read | Write, POSPerms: Read | Write},
	}
	parts := []model.PartitionName{"P1", "P2", "P3", "P4"}
	m := New(16 << 20)
	for _, p := range parts {
		if err := m.MapSpace(SpaceSpec{Partition: p, Descriptors: descs}); err != nil {
			t.Fatal(err)
		}
	}
	spot := []struct {
		p    model.PartitionName
		va   VirtAddr
		want PhysAddr
	}{
		{"P1", 0x0000_0000, 0x0000_0000},
		{"P1", 0x0010_0123, 0x0001_0123},
		{"P1", 0x0020_f00c, 0x0005_f00c},
		{"P2", 0x0000_0000, 0x0006_0000},
		{"P3", 0x0013_f000, 0x0010_f000},
		{"P4", 0x0020_fffc, 0x0017_fffc},
	}
	for _, mm := range []*MMU{m, m.Clone()} {
		for _, s := range spot {
			if got, err := mm.TranslateIn(s.p, s.va, Read, PrivApp); err != nil || got != s.want {
				t.Errorf("TranslateIn(%s, 0x%08x) = 0x%08x, %v; want 0x%08x", s.p, uint32(s.va), uint32(got), err, uint32(s.want))
			}
		}
		for k, p := range parts {
			if err := mm.SetContext(p); err != nil {
				t.Fatal(err)
			}
			frame := k * 96
			for _, d := range descs {
				for va := d.Base; va < d.End(); va += PageSize {
					want := PhysAddr(frame*PageSize) + 0x7c
					got, err := mm.Translate(va+0x7c, Read, PrivApp)
					if err != nil || got != want {
						t.Fatalf("Translate(%s, 0x%08x) = 0x%08x, %v; want 0x%08x", p, uint32(va+0x7c), uint32(got), err, uint32(want))
					}
					frame++
				}
			}
		}
	}
	if got, want := m.FreeBytes(), 16<<20-4*96*PageSize; got != want {
		t.Errorf("FreeBytes = %d, want %d", got, want)
	}
}

// TestFreeBytesAndOutOfMemory: capacity rounds up to whole pages, a mapping
// that runs out keeps the frames it numbered before failing, and a clone
// accounts its own further mappings apart from the parent.
func TestFreeBytesAndOutOfMemory(t *testing.T) {
	if got := New(0).FreeBytes(); got != PageSize {
		t.Errorf("New(0).FreeBytes = %d, want %d", got, PageSize)
	}
	m := New(4*PageSize + 1) // five pages
	if got := m.FreeBytes(); got != 5*PageSize {
		t.Fatalf("FreeBytes = %d, want %d", got, 5*PageSize)
	}
	mapData := func(mm *MMU, p model.PartitionName, pages uint32) error {
		return mm.MapSpace(SpaceSpec{Partition: p, Descriptors: []Descriptor{
			{Section: SectionData, Base: 0, Size: pages * PageSize, AppPerms: Read | Write},
		}})
	}
	if err := mapData(m, "A", 3); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := mapData(c, "B", 2); err != nil {
		t.Fatalf("clone mapping the last two frames: %v", err)
	}
	if got := c.FreeBytes(); got != 0 {
		t.Errorf("clone FreeBytes = %d, want 0", got)
	}
	if got := m.FreeBytes(); got != 2*PageSize {
		t.Errorf("parent FreeBytes after the clone mapped = %d, want %d", got, 2*PageSize)
	}
	if err := mapData(m, "B", 3); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("mapping 3 pages into 2 free = %v, want ErrOutOfMemory", err)
	}
	if got := m.FreeBytes(); got != 0 {
		t.Errorf("FreeBytes after the failed mapping = %d, want 0", got)
	}
	if got := m.MappedPages("B"); got != 2 {
		t.Errorf("MappedPages(B) after the failed mapping = %d, want 2", got)
	}
}

// TestWriteOwnedPageAllocs: once a page is owned, writing it again copies
// nothing and allocates nothing.
func TestWriteOwnedPageAllocs(t *testing.T) {
	m := newMapped(t).Clone()
	data := []byte("counter!")
	writeAt(t, m, "P1", dataVA, data)
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.WriteIn("P1", dataVA, data, PrivApp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteIn to an owned page costs %v allocs, want 0", allocs)
	}
}
