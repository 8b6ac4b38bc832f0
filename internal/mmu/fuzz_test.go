package mmu

import (
	"bytes"
	"errors"
	"testing"

	"air/internal/model"
)

// Geometry of the FuzzMMUClone MMUs: few enough frames that mappings run
// out, and accesses that reach two virtual pages past the furthest mapping
// a map op can make.
const (
	fuzzFrames    = 12
	fuzzVPages    = 10
	fuzzInstances = 6
	fuzzMaxOps    = 256
	fuzzOpBytes   = 6
)

var fuzzParts = [2]model.PartitionName{"A", "B"}

// refPage is one mapped virtual page of the reference model.
type refPage struct {
	frame int
	app   AccessMode
}

// refMMU is the reference the page store is fuzzed against: flat physical
// memory of the full capacity, eagerly copied on clone, and a map of mapped
// pages per partition.
type refMMU struct {
	mem    []byte
	frames int
	spaces map[model.PartitionName]map[VirtAddr]refPage
}

func newRefMMU() *refMMU {
	return &refMMU{
		mem:    make([]byte, fuzzFrames*PageSize),
		spaces: make(map[model.PartitionName]map[VirtAddr]refPage),
	}
}

func (r *refMMU) clone() *refMMU {
	c := &refMMU{
		mem:    append([]byte(nil), r.mem...),
		frames: r.frames,
		spaces: make(map[model.PartitionName]map[VirtAddr]refPage, len(r.spaces)),
	}
	for p, sp := range r.spaces { //air:allow(maprange): order-insensitive copy in a test model
		cs := make(map[VirtAddr]refPage, len(sp))
		for va, pg := range sp { //air:allow(maprange): order-insensitive copy in a test model
			cs[va] = pg
		}
		c.spaces[p] = cs
	}
	return c
}

// mapSpace mirrors MapSpace for one descriptor: overlap is checked first,
// then frames are numbered page by page until they run out.
func (r *refMMU) mapSpace(p model.PartitionName, base VirtAddr, pages int, app AccessMode) error {
	sp, ok := r.spaces[p]
	if !ok {
		sp = make(map[VirtAddr]refPage)
		r.spaces[p] = sp
	}
	for i := 0; i < pages; i++ {
		if _, ok := sp[base+VirtAddr(i*PageSize)]; ok {
			return ErrOverlap
		}
	}
	for i := 0; i < pages; i++ {
		if r.frames == fuzzFrames {
			return ErrOutOfMemory
		}
		sp[base+VirtAddr(i*PageSize)] = refPage{frame: r.frames, app: app}
		r.frames++
	}
	return nil
}

// access mirrors MMU.access: page by page, stopping at the first fault with
// the pages before it already transferred.
func (r *refMMU) access(p model.PartitionName, va VirtAddr, buf []byte, mode AccessMode, priv Privilege) error {
	sp, ok := r.spaces[p]
	if !ok {
		return ErrUnknownSpace
	}
	for len(buf) > 0 {
		pg, ok := sp[va&^VirtAddr(pageOffset)]
		if !ok {
			return &Fault{Partition: p, Address: va, Access: mode, Privilege: priv, Reason: FaultUnmapped}
		}
		perms := pg.app
		if priv == PrivPOS {
			perms = Read | Write
		}
		if priv != PrivPMK && perms&mode != mode {
			return &Fault{Partition: p, Address: va, Access: mode, Privilege: priv, Reason: FaultProtection}
		}
		n := min(PageSize-int(va&pageOffset), len(buf))
		pa := pg.frame*PageSize + int(va&pageOffset)
		if mode == Write {
			copy(r.mem[pa:pa+n], buf[:n])
		} else {
			copy(buf[:n], r.mem[pa:pa+n])
		}
		va += VirtAddr(n)
		buf = buf[n:]
	}
	return nil
}

// sameErr reports whether the MMU's error is the reference's: the same
// fault, field for field, or the same sentinel.
func sameErr(got, want error) bool {
	var wf *Fault
	if errors.As(want, &wf) {
		var gf *Fault
		return errors.As(got, &gf) && *gf == *wf
	}
	if want == nil || got == nil {
		return want == got
	}
	return errors.Is(got, want)
}

// FuzzMMUClone applies a byte-coded sequence of map, read, write, clone and
// freeze operations to a set of page-store MMUs and to one flat reference
// model per MMU. Every read, fault, physical address and free-byte count
// must match the reference, so a write that leaks through a shared page
// into another instance shows as a mismatch. Each op is six bytes: op, then
// five operands. An instance cloned since its last freeze freezes before
// its next write, as Clone requires and core.Module.Snapshot does.
func FuzzMMUClone(f *testing.F) {
	f.Add([]byte{
		0, 0, 0, 2, 3, 0, // map A pages 0-2 rw
		1, 0, 0, 1, 0x0f, 0xf0, // write A across pages 0/1
		3, 0, 0, 0, 0, 0, // clone
		1, 1, 0, 1, 0x0f, 0xf8, // write the clone across pages 0/1
		4, 0, 0, 0, 0, 0, // freeze the parent
		1, 0, 0, 1, 0x0f, 0xfc, // write the parent again
		2, 0, 0, 1, 0x0f, 0xe0, // read the parent
		2, 1, 0, 1, 0x0f, 0xe0, // read the clone
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mmus := []*MMU{New(fuzzFrames * PageSize)}
		refs := []*refMMU{newRefMMU()}
		// cloned[i]: instance i was cloned since it last froze, so by
		// Clone's contract it must Freeze before its next write.
		cloned := []bool{false}
		for step := 0; len(ops) >= fuzzOpBytes && step < fuzzMaxOps; step++ {
			op := ops[:fuzzOpBytes]
			ops = ops[fuzzOpBytes:]
			i := int(op[1]) % len(mmus)
			m, r := mmus[i], refs[i]
			p := fuzzParts[op[2]&1]
			switch op[0] % 5 {
			case 0: // map: partition, first page, page count, app perms
				base := VirtAddr(int(op[2]>>1)%(fuzzVPages-2)) * PageSize
				pages := 1 + int(op[3])%3
				app := AccessMode(op[4]) & (Read | Write)
				got := m.MapSpace(SpaceSpec{Partition: p, Descriptors: []Descriptor{
					{Section: SectionData, Base: base, Size: uint32(pages * PageSize),
						AppPerms: app, POSPerms: Read | Write},
				}})
				if want := r.mapSpace(p, base, pages, app); !sameErr(got, want) {
					t.Fatalf("step %d: instance %d map %s@0x%x×%d = %v, want %v", step, i, p, uint32(base), pages, got, want)
				}
			case 1, 2: // write or read: partition and path, page, offset, length
				mode := Write
				if op[0]%5 == 2 {
					mode = Read
				}
				priv := []Privilege{PrivApp, PrivPOS, PrivPMK}[int(op[2]>>1)%3]
				va := VirtAddr(int(op[3])%fuzzVPages*PageSize + int(op[4])<<4)
				n := 1 + int(op[5])%64
				if op[5]&0x80 != 0 {
					n += PageSize
				}
				got, want := make([]byte, n), make([]byte, n)
				if mode == Write {
					for k := range got {
						got[k] = byte(step*7 + k)
					}
					copy(want, got)
				}
				if mode == Write && cloned[i] {
					m.Freeze()
					cloned[i] = false
				}
				var gotErr error
				_, known := r.spaces[p]
				switch {
				case known && op[2]&0x40 != 0: // current-context (TLB) path
					if err := m.SetContext(p); err != nil {
						t.Fatalf("step %d: SetContext(%s): %v", step, p, err)
					}
					if mode == Write {
						gotErr = m.Write(va, got, priv)
					} else {
						gotErr = m.Read(va, got, priv)
					}
				case mode == Write:
					gotErr = m.WriteIn(p, va, got, priv)
				default:
					gotErr = m.ReadIn(p, va, got, priv)
				}
				wantErr := r.access(p, va, want, mode, priv)
				if !sameErr(gotErr, wantErr) {
					t.Fatalf("step %d: instance %d %s %s@0x%x+%d at %s = %v, want %v", step, i, mode, p, uint32(va), n, priv, gotErr, wantErr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: instance %d %s %s@0x%x+%d: bytes differ from the reference", step, i, mode, p, uint32(va), n)
				}
				if wantErr == nil {
					pa, err := m.TranslateIn(p, va, Read, PrivPMK)
					wantPA := PhysAddr(r.spaces[p][va&^VirtAddr(pageOffset)].frame*PageSize) + PhysAddr(va&pageOffset)
					if err != nil || pa != wantPA {
						t.Fatalf("step %d: TranslateIn(%s, 0x%x) = 0x%x, %v; want 0x%x", step, p, uint32(va), uint32(pa), err, uint32(wantPA))
					}
				}
			case 3: // clone
				if len(mmus) < fuzzInstances {
					mmus = append(mmus, m.Clone())
					refs = append(refs, r.clone())
					cloned[i] = true
					cloned = append(cloned, false)
				}
			case 4: // freeze
				m.Freeze()
				cloned[i] = false
			}
			if got, want := m.FreeBytes(), (fuzzFrames-r.frames)*PageSize; got != want {
				t.Fatalf("step %d: instance %d FreeBytes = %d, want %d", step, i, got, want)
			}
		}
		// A final sweep: every instance's whole space matches its reference.
		for i, m := range mmus {
			for _, p := range fuzzParts {
				for va := range refs[i].spaces[p] { //air:allow(maprange): order-insensitive comparison in a test
					got, want := make([]byte, PageSize), make([]byte, PageSize)
					if err := m.ReadIn(p, va, got, PrivPMK); err != nil {
						t.Fatalf("instance %d sweep %s@0x%x: %v", i, p, uint32(va), err)
					}
					if err := refs[i].access(p, va, want, Read, PrivPMK); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("instance %d sweep %s@0x%x: bytes differ from the reference", i, p, uint32(va))
					}
				}
			}
		}
	})
}
