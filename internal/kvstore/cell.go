// Package kvstore implements the NoSQL substrate of the platform: a
// log-structured, sorted key-value store with the HBase data model (row →
// qualifier → timestamped versions), range-partitioned regions, server-side
// coprocessors, and a mini-cluster that places regions on simulated nodes.
//
// It plays the role Apache HBase plays in the original MoDisSENSE
// deployment: the Social-Info, Text, Visits and GPS-Traces repositories are
// all tables in this store, and the personalized query path executes as
// coprocessors inside each region.
package kvstore

import (
	"fmt"
	"strings"
)

// cellOverhead is the fixed per-cell footprint charged on top of the key,
// qualifier and value bytes everywhere the store accounts for cell sizes:
// the memtable flush threshold, segment logical bytes (the size-tiered
// compaction policy's input), ingest byte counters and delivered-row
// estimates. One shared constant keeps flush-threshold and compaction-debt
// accounting from drifting apart.
const cellOverhead = 16

// Cell is one versioned value: the unit of storage, identical to HBase's
// KeyValue. Rows and qualifiers are ordered lexicographically; versions of
// the same (row, qualifier) are ordered newest-first.
type Cell struct {
	Row       string
	Qualifier string
	Timestamp int64 // milliseconds since epoch, chosen by the writer
	Value     []byte
	Tombstone bool // true marks a delete of all versions at or before Timestamp
}

// String implements fmt.Stringer for debugging output.
func (c Cell) String() string {
	v := string(c.Value)
	if len(v) > 24 {
		v = v[:24] + "…"
	}
	kind := "put"
	if c.Tombstone {
		kind = "del"
	}
	return fmt.Sprintf("%s/%s@%d %s %q", c.Row, c.Qualifier, c.Timestamp, kind, v)
}

// compareCells orders cells by (row asc, qualifier asc, timestamp desc,
// tombstone first at equal timestamps). Newest-first timestamps make "the
// first version wins" the natural read rule, and tombstone-first guarantees
// a delete written at time T masks a put written at the same T.
func compareCells(a, b *Cell) int {
	if c := strings.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	if c := strings.Compare(a.Qualifier, b.Qualifier); c != 0 {
		return c
	}
	switch {
	case a.Timestamp > b.Timestamp:
		return -1
	case a.Timestamp < b.Timestamp:
		return 1
	}
	switch {
	case a.Tombstone && !b.Tombstone:
		return -1
	case !a.Tombstone && b.Tombstone:
		return 1
	}
	return 0
}

// RowResult is the materialized read view of one row: the newest live
// version of every qualifier. The Cells slice may be reused by the scan that
// delivered it; the Value bytes it points at are never rewritten and may be
// retained (see Table.PutBatch).
type RowResult struct {
	Row   string
	Cells []Cell // sorted by qualifier, tombstones resolved away
}

// Get returns the value of a qualifier and whether it exists.
func (r *RowResult) Get(qualifier string) ([]byte, bool) {
	for i := range r.Cells {
		if r.Cells[i].Qualifier == qualifier {
			return r.Cells[i].Value, true
		}
	}
	return nil, false
}

// Empty reports whether the row has no live cells.
func (r *RowResult) Empty() bool { return len(r.Cells) == 0 }
