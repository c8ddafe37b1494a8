package kvstore

import "math/rand"

// memtable is the mutable, in-memory write buffer of a store: a skiplist
// ordered by compareCells. Writes append new versions; reads and scans see
// a fully sorted view. The memtable is not internally synchronized — the
// owning store serializes access.
type memtable struct {
	head   *skipNode
	level  int
	length int
	bytes  int
	rng    *rand.Rand
}

const maxSkipLevel = 20

type skipNode struct {
	cell Cell
	next []*skipNode
}

// newMemtable creates an empty memtable. The seed only affects skiplist
// tower heights, never visible ordering, but pinning it keeps the whole
// store deterministic for the simulation experiments.
func newMemtable(seed int64) *memtable {
	return &memtable{
		head: &skipNode{next: make([]*skipNode, maxSkipLevel)},
		rng:  rand.New(rand.NewSource(seed)),
	}
}

func (m *memtable) randomLevel() int {
	l := 1
	for l < maxSkipLevel && m.rng.Intn(2) == 0 {
		l++
	}
	return l
}

// add inserts a cell. Equal-key cells (same row, qualifier, timestamp and
// kind) overwrite in place, matching HBase semantics where a rewrite at the
// same timestamp replaces the value.
func (m *memtable) add(c Cell) {
	update := make([]*skipNode, maxSkipLevel)
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && compareCells(&x.next[i].cell, &c) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	if m.level > 0 {
		if cand := update[0].next[0]; cand != nil && compareCells(&cand.cell, &c) == 0 {
			m.bytes += len(c.Value) - len(cand.cell.Value)
			cand.cell = c
			return
		}
	}
	lvl := m.randomLevel()
	if lvl > m.level {
		for i := m.level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level = lvl
	}
	n := &skipNode{cell: c, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	m.length++
	m.bytes += len(c.Row) + len(c.Qualifier) + len(c.Value) + cellOverhead
}

// len returns the number of stored cells.
func (m *memtable) len() int { return m.length }

// sizeBytes returns the approximate heap footprint, used by flush policy.
func (m *memtable) sizeBytes() int { return m.bytes }

// seek returns the first node whose row is at or after row.
func (m *memtable) seek(row []byte) *skipNode {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].cell.Row < string(row) {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// first returns the smallest node, or nil when empty.
func (m *memtable) first() *skipNode {
	return m.head.next[0]
}

// iterator returns a cellIterator positioned at the first row at or after
// start (the beginning when start is empty).
func (m *memtable) iterator(start []byte) cellIterator {
	n := m.first()
	if len(start) > 0 {
		n = m.seek(start)
	}
	return &memtableIterator{mem: m, node: n}
}

type memtableIterator struct {
	mem  *memtable
	node *skipNode
}

func (it *memtableIterator) valid() bool { return it.node != nil }
func (it *memtableIterator) cell() *Cell { return &it.node.cell }
func (it *memtableIterator) next()       { it.node = it.node.next[0] }

// seek repositions the iterator at the first row at or after row via the
// skiplist towers. Forward-only: a row at or behind the current cell's is a
// no-op.
func (it *memtableIterator) seek(row []byte) {
	if it.node == nil || it.node.cell.Row >= string(row) {
		return
	}
	it.node = it.mem.seek(row)
}
