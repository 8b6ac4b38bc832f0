package mmu

import "air/internal/model"

// Clone returns an independent copy of the MMU and its simulated physical
// memory for module snapshot/fork. The clone shares every page with the
// parent and owns none, so its first write to a page copies that page
// (copy-on-write): forking costs one pointer per allocated frame, never the
// frames' bytes. Clone only reads the parent, so concurrent clones are safe;
// the parent must Freeze before it writes again, or in-place writes to the
// pages it owns would show in the clone. Page tables are rebuilt
// node-by-node (all entries are plain values), and the TLB plus its
// statistics are value-copied so a fork's hit/miss profile replays exactly.
// Device ranges share the parent's Device implementations — device models
// carry external state the MMU cannot copy, so callers that need fork
// isolation must not map devices (the core snapshot layer rejects them).
func (m *MMU) Clone() *MMU {
	c := &MMU{
		frames:   append([]*[PageSize]byte(nil), m.frames...),
		owned:    make([]uint64, len(m.owned)),
		size:     m.size,
		contexts: make(map[model.PartitionName]*context, len(m.contexts)),
		current:  m.current,
		hasCtx:   m.hasCtx,
		tlb:      m.tlb,
		tlbStats: m.tlbStats,
	}
	for name, ctx := range m.contexts { //air:allow(maprange): one-shot fork assembly off the hot path; order-insensitive copy
		c.contexts[name] = ctx.clone()
	}
	return c
}

func (ctx *context) clone() *context {
	c := &context{
		root:        cloneL1(ctx.root),
		descriptors: append([]Descriptor(nil), ctx.descriptors...),
		pages:       ctx.pages,
		devices:     append([]devRange(nil), ctx.devices...),
	}
	return c
}

func cloneL1(t *l1Table) *l1Table {
	if t == nil {
		return nil
	}
	c := &l1Table{}
	for i, l2 := range t.next {
		c.next[i] = cloneL2(l2)
	}
	return c
}

func cloneL2(t *l2Table) *l2Table {
	if t == nil {
		return nil
	}
	c := &l2Table{}
	for i, l3 := range t.next {
		c.next[i] = cloneL3(l3)
	}
	return c
}

func cloneL3(t *l3Table) *l3Table {
	if t == nil {
		return nil
	}
	c := *t // entries are plain values
	return &c
}
