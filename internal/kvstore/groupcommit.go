package kvstore

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
)

// Group commit: concurrent WAL appenders are batched into commit groups so
// the log pays one write — and, under SyncGroup, one fsync — per group
// instead of per put. The first appender to find no group open becomes
// the leader; while the leader waits for the previous group's I/O to finish,
// followers pile their cells into the open group and then block on its done
// channel. The leader seals the group, writes one record (a plain per-put
// record for a single cell, a batched record otherwise) and wakes everyone
// with the shared outcome. Throughput scales with the number of concurrent
// writers while every acknowledged write is as durable as a solo one.

// SyncPolicy selects how a GroupCommitWAL makes commit groups durable.
type SyncPolicy int

const (
	// SyncOS acknowledges a group once it reaches the OS (a file write
	// into the page cache, no fsync): a process crash loses nothing, a
	// machine crash can lose the unsynced tail.
	SyncOS SyncPolicy = iota
	// SyncGroup fsyncs once per commit group before acknowledging — full
	// durability, amortized across every writer in the group.
	SyncGroup
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	if p == SyncGroup {
		return "group"
	}
	return "os"
}

// ParseSyncPolicy maps the -wal-sync flag values to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "os":
		return SyncOS, nil
	case "group":
		return SyncGroup, nil
	}
	return SyncOS, fmt.Errorf("kvstore: unknown wal sync policy %q (want os or group)", s)
}

// groupCommitYields is the leader's accumulation window when the I/O path
// is idle: scheduler yields before queueing for the lock, so concurrent
// appenders that just woke from the previous group can join this one.
const groupCommitYields = 8

// walBufKeep caps the record buffer a GroupCommitWAL keeps between
// commits: a buffer that an outsized group grew past it is dropped after
// that commit, so one burst does not pin its peak for the log's lifetime.
const walBufKeep = 1 << 20

// commitGroup is one in-flight batch of cells awaiting a leader's commit.
type commitGroup struct {
	cells []Cell
	done  chan struct{}
	err   error
}

// GroupCommitWAL is the file-backed write-ahead log of a durable table; its
// concurrent appenders commit in groups. A single-cell group is written as a
// per-put record, any other as a batched record (see wal.go for both
// layouts); ReplayWAL reads either. Safe for concurrent use.
type GroupCommitWAL struct {
	// mu guards cur and closed: the fast path that joins or opens a group.
	mu     sync.Mutex
	cur    *commitGroup
	closed bool
	// ioMu serializes group commits; holding it while the previous group
	// syncs is what lets the next group accumulate followers.
	ioMu sync.Mutex
	f    *os.File
	// buf is the record buffer each commit encodes its group into, used
	// only under ioMu (see walBufKeep).
	buf []byte

	policy SyncPolicy
}

// OpenGroupCommitWAL opens (creating if needed) the WAL file at path for
// group-committed appends under the given sync policy.
func OpenGroupCommitWAL(path string, policy SyncPolicy) (*GroupCommitWAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	return &GroupCommitWAL{f: f, policy: policy}, nil
}

// AppendBatch joins the open commit group (or opens one) and returns once
// the group is durable per the sync policy. All cells of one call land in
// the same group, so they reach the log as one unit: a replay applies either
// all of them or (for a torn tail) none. A call the log could not replay
// (checkWALBatch) is refused before it joins a group. The cells are only
// read.
func (w *GroupCommitWAL) AppendBatch(cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	if err := checkWALBatch(cells); err != nil {
		return err
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("kvstore: append to closed wal")
	}
	if g := w.cur; g != nil {
		// Follower: add to the open group and wait for its leader.
		g.cells = append(g.cells, cells...)
		w.mu.Unlock()
		<-g.done
		return g.err
	}
	// The capacity is clamped so that followers joining the group append
	// into a fresh array, never into the leader's caller's spare capacity.
	g := &commitGroup{cells: cells[:len(cells):len(cells)], done: make(chan struct{})}
	w.cur = g
	w.mu.Unlock()

	// Leader: queue behind the previous group's I/O, seal, commit, wake.
	// Queueing on ioMu is what normally lets followers pile in — but when the
	// I/O path is idle (every writer just woke from the previous group), the
	// lock is free and the group would seal near-empty. Under SyncGroup a few
	// scheduler yields open an accumulation window that costs microseconds
	// against a sync that costs at least a disk round-trip.
	if w.policy == SyncGroup {
		for i := 0; i < groupCommitYields; i++ {
			runtime.Gosched()
		}
	}
	w.ioMu.Lock()
	w.mu.Lock()
	w.cur = nil
	closed := w.closed
	w.mu.Unlock()
	if closed {
		g.err = errors.New("kvstore: wal closed before group commit")
	} else {
		g.err = w.commitLocked(g.cells)
	}
	w.ioMu.Unlock()
	close(g.done)
	return g.err
}

// commitLocked encodes the group's record into the log's buffer, writes it
// and makes it durable per the sync policy. Caller holds ioMu.
func (w *GroupCommitWAL) commitLocked(cells []Cell) error {
	rec := appendWALRecord(w.buf[:0], cells)
	if cap(rec) > walBufKeep {
		w.buf = nil
	} else {
		w.buf = rec
	}
	if len(cells) > 1 {
		mWALBatchRecords.Inc()
	}
	// Both policies hand the group to the OS in one write before
	// acknowledging: nothing buffers an acknowledged cell in the process.
	if _, err := w.f.Write(rec); err != nil {
		return err
	}
	if w.policy == SyncGroup {
		if err := w.f.Sync(); err != nil {
			return err
		}
		mWALSyncs.Inc()
	}
	mWALGroupCommits.Inc()
	mWALGroupCells.Add(int64(len(cells)))
	return nil
}

// Close releases the log. Appends in flight when Close acquires the I/O
// lock fail with a closed-WAL error; Close is idempotent.
func (w *GroupCommitWAL) Close() error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	return w.f.Close()
}
