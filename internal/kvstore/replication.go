package kvstore

import (
	"context"
	"fmt"
	"sync"

	"modissense/internal/faultinject"
)

// replicaState is one read-only replica of a region: a full copy of the
// region's store pinned to a different simulated node.
type replicaState struct {
	store  *Store
	nodeID int
	// applied counts the primary mutations this replica has observed:
	// mutations [0, applied) of the owning set's sequence are in its
	// store. Guarded by the owning replicaSet's mu.
	applied uint64
}

// replicaSet tracks a region's read replicas plus the WAL-shipping state
// that keeps them consistent with the primary. Every primary write is
// appended to the retained log (the in-memory WAL tail) and shipped to each
// replica by the same write — mirroring HBase's WAL replication, where
// replicas trail the primary by the unshipped edits.
//
// Each replica carries its own applied watermark, so a replica whose
// shipment was intercepted (a write-side fault, or a down node) simply
// lags: the log retains every mutation at least one live replica has not
// observed, which is exactly the tail a failover promotion force-ships.
// seq counts mutations appended on the primary; the lag watermark is seq
// minus the slowest replica's applied count.
//
// The replicas slice is immutable after the set is installed on a region:
// promotion, replica eviction and rejoin build a new set and swap the
// region's pointer under the table write lock (copy-on-write), so readers
// holding only region.mu stay safe. Per-replica applied watermarks and the
// log are guarded by mu.
//
// Gauge discipline: every state change recomputes the set's lag under mu
// and applies the delta to the global gauge in one step (adjustGaugeLocked),
// so concurrent ship / catch-up / retire paths can never double-count —
// the gauge is exactly the sum of installed sets' lags.
type replicaSet struct {
	replicas []*replicaState

	mu sync.Mutex
	// log holds primary mutations [base, seq); entries below every
	// replica's applied watermark are truncated after each ship.
	log  []Cell
	base uint64
	seq  uint64
	// intercept, when non-nil, is consulted before shipping to one
	// replica; an error skips that replica for this round (it lags and
	// catches up on a later ship, an admin catch-up, or a promotion
	// force-ship).
	intercept func(rep *replicaState, replicaIdx int) error
	// retired flips when the set is replaced on its region; its lag has
	// been removed from the gauge and must not be re-added.
	retired bool
}

// lagLocked returns seq minus the slowest replica's applied watermark.
// Caller holds rs.mu.
func (rs *replicaSet) lagLocked() uint64 {
	if len(rs.replicas) == 0 {
		return 0
	}
	min := rs.replicas[0].applied
	for _, rep := range rs.replicas[1:] {
		if rep.applied < min {
			min = rep.applied
		}
	}
	return rs.seq - min
}

// adjustGaugeLocked applies this set's lag change to the global gauge:
// callers snapshot lagLocked before mutating and pass it in. Retired sets
// contribute nothing. Caller holds rs.mu.
func (rs *replicaSet) adjustGaugeLocked(oldLag uint64) {
	if rs.retired {
		return
	}
	mReplicationLag.Add(int64(rs.lagLocked()) - int64(oldLag))
}

// retireLocked removes the set's lag contribution from the gauge when the
// set is replaced on its region (split, promotion, eviction, rejoin).
// Idempotent. Caller holds rs.mu.
func (rs *replicaSet) retireLocked() {
	if rs.retired {
		return
	}
	mReplicationLag.Add(-int64(rs.lagLocked()))
	rs.retired = true
}

// appendBatch records a run of applied primary mutations into the shipping
// log and ships it, under one lock acquisition. Called from Table.write with
// the table read lock held.
func (rs *replicaSet) appendBatch(cells []Cell) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	old := rs.lagLocked()
	rs.log = append(rs.log, cells...)
	rs.seq += uint64(len(cells))
	err := rs.shipLocked(false)
	rs.adjustGaugeLocked(old)
	return err
}

// shipLocked applies each replica's unobserved log suffix to it, advancing
// that replica's applied watermark, then truncates the log below the
// slowest watermark. When force is false each replica's shipment first
// passes the interception hook; an intercepted replica is skipped (it
// lags), which never fails the caller's write. Store apply errors do fail
// the ship. Caller holds rs.mu and is responsible for the gauge delta.
func (rs *replicaSet) shipLocked(force bool) error {
	oldMin := rs.seq - rs.lagLocked()
	var firstErr error
	for idx, rep := range rs.replicas {
		if rep.applied >= rs.seq {
			continue
		}
		if !force && rs.intercept != nil {
			if err := rs.intercept(rep, idx+1); err != nil {
				continue
			}
		}
		// A failed apply leaves the watermark where it was: the suffix is
		// shipped again, and re-applying a cell is idempotent.
		if err := rep.store.ApplyBatch(rs.log[rep.applied-rs.base:]); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("kvstore: ship to replica: %w", err)
			}
			continue
		}
		rep.applied = rs.seq
	}
	if newMin := rs.seq - rs.lagLocked(); newMin > oldMin {
		mReplicationShipped.Add(int64(newMin - oldMin))
	}
	rs.truncateLocked()
	return firstErr
}

// truncateLocked drops log entries every replica has observed. Caller
// holds rs.mu.
func (rs *replicaSet) truncateLocked() {
	min := rs.seq - rs.lagLocked()
	if min <= rs.base {
		return
	}
	drop := min - rs.base
	if drop >= uint64(len(rs.log)) {
		rs.log = rs.log[:0]
	} else {
		rs.log = append([]Cell(nil), rs.log[drop:]...)
	}
	rs.base = min
}

// dropPending abandons unshipped mutations (used when a split rebuilds the
// replica set from the post-split stores, which already contain them),
// keeping the global lag gauge consistent.
func (rs *replicaSet) dropPending() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	old := rs.lagLocked()
	rs.log = nil
	rs.base = rs.seq
	for _, rep := range rs.replicas {
		rep.applied = rs.seq
	}
	rs.adjustGaugeLocked(old)
}

// replicaSet returns the region's replica set, or nil when replication is
// not enabled.
func (r *Region) replicaSet() *replicaSet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.repl
}

// Replicas returns the region's read-replica count (0 without replication).
func (r *Region) Replicas() int {
	if rs := r.replicaSet(); rs != nil {
		return len(rs.replicas)
	}
	return 0
}

// ReadView returns a frozen view of the region served by the given replica
// index: 0 is the current primary, 1..Replicas() are the read replicas (the
// view's NodeID is the node hosting that copy). Out-of-range indexes fall
// back to the primary. Replica views may lag the primary by up to the
// unshipped WAL tail (kvstore_replication_lag_entries).
func (r *Region) ReadView(replica int) *Region {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if replica > 0 && r.repl != nil && replica <= len(r.repl.replicas) {
		rep := r.repl.replicas[replica-1]
		return &Region{
			ID:       r.ID,
			StartKey: r.StartKey,
			NodeID:   rep.nodeID,
			endKey:   r.endKey,
			store:    rep.store,
			primary:  rep.nodeID,
			epoch:    r.epoch,
		}
	}
	return &Region{
		ID:       r.ID,
		StartKey: r.StartKey,
		NodeID:   r.primary,
		endKey:   r.endKey,
		store:    r.store,
		primary:  r.primary,
		epoch:    r.epoch,
	}
}

// EnableReplication equips every region with n read-only replicas hosted on
// the next n nodes after the primary (modulo the cluster size), seeded from
// a snapshot of the primary's cells. Every later write is WAL-shipped to
// the replicas as it commits; a replica whose shipment is intercepted lags
// until a later ship, CatchUpReplication or a promotion force-ships the
// tail. Replicas created by a later SplitRegion inherit the same settings.
// Call once per table, after which reads may be served by ReadView /
// ExecRegions.
func (t *Table) EnableReplication(n int) error {
	if n < 1 {
		return fmt.Errorf("kvstore: replication needs at least 1 replica, got %d", n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.replicas > 0 {
		return fmt.Errorf("kvstore: replication already enabled on table %q", t.name)
	}
	t.replicas = n
	for _, r := range t.regions {
		rs, err := t.newReplicaSet(r.ID, r.primary, r.store)
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.repl = rs
		r.mu.Unlock()
	}
	return nil
}

// newReplicaSet builds a replica set seeded from the given primary store.
// Caller holds t.mu, so the store cannot be swapped mid-copy. The table's
// log is the one durable copy; replicas rebuild from it (here: from the
// primary's cells) on boot.
func (t *Table) newReplicaSet(regionID, primaryNode int, primary *Store) (*replicaSet, error) {
	cells := primary.rawCells()
	rs := &replicaSet{intercept: t.shipInterceptFor(regionID)}
	for i := 0; i < t.replicas; i++ {
		st, err := t.seedReplicaStore(regionID, cells)
		if err != nil {
			return nil, err
		}
		rs.replicas = append(rs.replicas, &replicaState{
			store:  st,
			nodeID: (primaryNode + 1 + i) % t.nodes,
		})
	}
	return rs, nil
}

// seedReplicaStore builds one replica store pre-loaded with the given cell
// snapshot.
func (t *Table) seedReplicaStore(regionID int, cells []Cell) (*Store, error) {
	st, err := NewStore(storeOptsForRegion(t.opts, regionID))
	if err != nil {
		return nil, err
	}
	if err := st.ApplyBatch(cells); err != nil {
		return nil, fmt.Errorf("kvstore: seed replica: %w", err)
	}
	return st, nil
}

// shipInterceptFor builds the per-replica shipment hook for a region: it
// skips replicas on nodes the failure detector holds down, passes the
// write-side fault injector's op=ship interception point, and feeds ship
// failures back into the detector as evidence against the replica's node.
func (t *Table) shipInterceptFor(regionID int) func(rep *replicaState, replicaIdx int) error {
	return func(rep *replicaState, replicaIdx int) error {
		det := t.det.Load()
		if det != nil && det.health(rep.nodeID) == NodeDown {
			return fmt.Errorf("kvstore: replica node %d is down", rep.nodeID)
		}
		inj := t.writeInjector.Load()
		if inj == nil {
			return nil
		}
		d := inj.Decide(faultinject.Op{Kind: faultinject.OpShip, Node: rep.nodeID, Region: regionID, Replica: replicaIdx})
		if d.Stall > 0 {
			_ = faultinject.Sleep(context.Background(), d.Stall)
		}
		if d.Err != nil {
			if det != nil {
				det.recordFailure(rep.nodeID)
			}
			return d.Err
		}
		return nil
	}
}

// CatchUpReplication force-ships every region's pending WAL tail so all
// replicas observe every write issued so far (lag returns to zero). The
// force-ship is administrative: it bypasses fault injection and down-node
// skips, reading the retained log directly. Tests and benchmarks call it
// after bulk loads (or after a rejoin) to start from a converged state.
func (t *Table) CatchUpReplication() error {
	for _, r := range t.Regions() {
		rs := r.replicaSet()
		if rs == nil {
			continue
		}
		rs.mu.Lock()
		old := rs.lagLocked()
		err := rs.shipLocked(true)
		rs.adjustGaugeLocked(old)
		rs.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
