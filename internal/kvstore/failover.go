package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"modissense/internal/faultinject"
)

// Failover sentinels; errors.Is distinguishes the two write-unavailability
// shapes at the edge and in retry loops.
var (
	// ErrEpochFenced marks a write rejected because it carried a stale
	// region epoch — a zombie primary (declared down, promoted away) trying
	// to land a late write. Fenced writes touch neither the WAL nor any
	// store.
	ErrEpochFenced = errors.New("kvstore: write fenced by region epoch")
	// ErrPrimaryDown marks a write rejected because the owning region's
	// primary node is held down by the failure detector and its promotion
	// has not completed yet — the bounded write-unavailability window.
	// Callers retry; the write succeeds once cutover lands.
	ErrPrimaryDown = errors.New("kvstore: region primary down")
)

// NodeHealth is a node's failure-detector state.
type NodeHealth int

// The failure detector's per-node states.
const (
	// NodeHealthy nodes serve writes and host replicas normally.
	NodeHealthy NodeHealth = iota
	// NodeSuspect nodes have accumulated consecutive failures (or a
	// breaker trip) but not enough to declare them dead; more failures
	// escalate to down, one write success resets to healthy.
	NodeSuspect
	// NodeDown nodes are declared dead: their region primaries are
	// promoted away, shipments to their replicas stop, and the state is
	// sticky — only RejoinNode revives the node (never as a primary).
	NodeDown
)

// String names the health state as exported on the health gauges.
func (h NodeHealth) String() string {
	switch h {
	case NodeSuspect:
		return "suspect"
	case NodeDown:
		return "down"
	default:
		return "healthy"
	}
}

// DefaultDownAfter is the default consecutive-failure count that declares a
// node down and triggers automatic promotion (see FailoverConfig).
const DefaultDownAfter = 6

// FailoverConfig tunes the per-node failure detector behind
// Table.EnableFailover. Counts are consecutive failures observed on the
// write path (put admission, WAL shipment) or the read path; any write
// success on the node resets the count while the node is not yet down.
type FailoverConfig struct {
	// SuspectAfter is the consecutive-failure count that marks a node
	// suspect (<= 0 derives it from DownAfter: halfway there, rounded up).
	SuspectAfter int
	// DownAfter is the consecutive-failure count that declares a node down
	// and kicks off promotion of every region it primaries (<= 0 uses
	// DefaultDownAfter; must be >= SuspectAfter).
	DownAfter int
}

// detectorNode is one node's detector state.
type detectorNode struct {
	health NodeHealth
	fails  int
}

// failureDetector tracks per-node health from real operation outcomes:
// consecutive failures walk a node healthy → suspect → down; the down
// transition fires onDown exactly once (it is sticky until markRecovered).
// All transitions maintain the kvstore_node_health gauges.
type failureDetector struct {
	cfg    FailoverConfig
	onDown func(node int)

	mu    sync.Mutex
	nodes []detectorNode
}

// newFailureDetector builds a detector with every node healthy.
func newFailureDetector(cfg FailoverConfig, nodes int, onDown func(int)) *failureDetector {
	mNodesHealthy.Add(int64(nodes))
	return &failureDetector{cfg: cfg, onDown: onDown, nodes: make([]detectorNode, nodes)}
}

// healthGauge maps a state to its gauge.
func healthGauge(h NodeHealth) interface{ Add(int64) } {
	switch h {
	case NodeSuspect:
		return mNodesSuspect
	case NodeDown:
		return mNodesDown
	default:
		return mNodesHealthy
	}
}

// setHealthLocked transitions one node's state, keeping the gauges
// consistent. Caller holds d.mu.
func (d *failureDetector) setHealthLocked(node int, h NodeHealth) {
	old := d.nodes[node].health
	if old == h {
		return
	}
	healthGauge(old).Add(-1)
	healthGauge(h).Add(1)
	d.nodes[node].health = h
}

// recordFailure counts one failed operation against the node, escalating
// suspect at SuspectAfter and down at DownAfter consecutive failures. The
// down transition fires onDown (outside the detector lock) exactly once.
func (d *failureDetector) recordFailure(node int) {
	if d == nil || node < 0 || node >= len(d.nodes) {
		return
	}
	d.mu.Lock()
	n := &d.nodes[node]
	if n.health == NodeDown {
		d.mu.Unlock()
		return
	}
	n.fails++
	fire := false
	switch {
	case n.fails >= d.cfg.DownAfter:
		d.setHealthLocked(node, NodeDown)
		fire = true
	case n.fails >= d.cfg.SuspectAfter:
		d.setHealthLocked(node, NodeSuspect)
	}
	d.mu.Unlock()
	if fire && d.onDown != nil {
		d.onDown(node)
	}
}

// recordSuccess resets the node's consecutive-failure count. Down is
// sticky: a success from a node already declared down is ignored (a zombie
// completing work does not resurrect it — only RejoinNode does).
func (d *failureDetector) recordSuccess(node int) {
	if d == nil || node < 0 || node >= len(d.nodes) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := &d.nodes[node]
	if n.health == NodeDown {
		return
	}
	n.fails = 0
	d.setHealthLocked(node, NodeHealthy)
}

// markSuspect escalates a healthy node straight to suspect — the breaker
// layer's trip signal. Breaker trips alone never declare a node down; that
// takes real consecutive operation failures.
func (d *failureDetector) markSuspect(node int) {
	if d == nil || node < 0 || node >= len(d.nodes) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := &d.nodes[node]
	if n.health != NodeHealthy {
		return
	}
	if n.fails < d.cfg.SuspectAfter {
		n.fails = d.cfg.SuspectAfter
	}
	d.setHealthLocked(node, NodeSuspect)
}

// markDown forces the node down without firing onDown (the caller runs the
// promotion itself). Idempotent.
func (d *failureDetector) markDown(node int) {
	if d == nil || node < 0 || node >= len(d.nodes) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodes[node].fails = d.cfg.DownAfter
	d.setHealthLocked(node, NodeDown)
}

// markRecovered revives a node to healthy with a clean failure count —
// the rejoin path's entry point.
func (d *failureDetector) markRecovered(node int) {
	if d == nil || node < 0 || node >= len(d.nodes) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodes[node].fails = 0
	d.setHealthLocked(node, NodeHealthy)
}

// health returns the node's current state (out-of-range nodes read healthy).
func (d *failureDetector) health(node int) NodeHealth {
	if d == nil || node < 0 || node >= len(d.nodes) {
		return NodeHealthy
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nodes[node].health
}

// downSet snapshots which nodes are down (nil when none are).
func (d *failureDetector) downSet() []bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []bool
	for i := range d.nodes {
		if d.nodes[i].health == NodeDown {
			if out == nil {
				out = make([]bool, len(d.nodes))
			}
			out[i] = true
		}
	}
	return out
}

// EnableFailover arms automatic primary failover: a per-node failure
// detector fed by write admissions, WAL shipments and read attempts, which
// on a node-down transition promotes the most-caught-up replica of every
// region the node primaries (force-shipping the retained WAL tail first),
// fences the old primary behind a bumped region epoch, and re-seeds
// replacement replicas on healthy nodes. Requires EnableReplication first;
// call once per table.
func (t *Table) EnableFailover(cfg FailoverConfig) error {
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = DefaultDownAfter
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = (cfg.DownAfter + 1) / 2
	}
	if cfg.DownAfter < cfg.SuspectAfter {
		return fmt.Errorf("kvstore: failover DownAfter (%d) must be >= SuspectAfter (%d)", cfg.DownAfter, cfg.SuspectAfter)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.replicas < 1 {
		return fmt.Errorf("kvstore: failover on table %q needs replication enabled first", t.name)
	}
	if t.det.Load() != nil {
		return fmt.Errorf("kvstore: failover already enabled on table %q", t.name)
	}
	t.det.Store(newFailureDetector(cfg, t.nodes, t.asyncFailover))
	t.updateEpochGaugeLocked()
	return nil
}

// SetFaultInjector installs (or, with nil, removes) the write-side fault
// injector intercepting put admissions (op=put) and per-replica WAL
// shipments (op=ship). The read path's injector is configured separately
// through ReadOptions; benches share one injector across both.
func (t *Table) SetFaultInjector(inj *faultinject.Injector) {
	t.writeInjector.Store(inj)
}

// NodeHealth reports the failure detector's state for a node (always
// healthy when failover is not enabled).
func (t *Table) NodeHealth(node int) NodeHealth {
	return t.det.Load().health(node)
}

// MarkNodeSuspect escalates a node to suspect — the wiring point for
// admit.BreakerSet.SetOnTrip, so circuit-breaker trips feed the failure
// detector. No-op when failover is not enabled.
func (t *Table) MarkNodeSuspect(node int) {
	t.det.Load().markSuspect(node)
}

// asyncFailover is the detector's down callback: it runs the promotion on
// its own goroutine because the failing writer that delivered the final
// failure still holds the table read lock, and promotion needs the write
// lock. failoversActive is incremented synchronously, so a writer that just
// observed the triggering error already sees FailoverInProgress.
func (t *Table) asyncFailover(node int) {
	t.failoversActive.Add(1)
	go func() {
		defer t.failoversActive.Add(-1)
		if err := t.promoteAway(node); err != nil {
			mFailoverFailures.Inc()
		}
	}()
}

// FailoverNode is the forced-failover escape hatch: it declares the node
// down (without waiting for the detector) and synchronously promotes every
// region it primaries, evicting its replicas. The node re-enters only via
// RejoinNode.
func (t *Table) FailoverNode(node int) error {
	det := t.det.Load()
	if det == nil {
		return fmt.Errorf("kvstore: failover not enabled on table %q", t.name)
	}
	if node < 0 || node >= t.nodes {
		return fmt.Errorf("kvstore: node %d out of range [0,%d)", node, t.nodes)
	}
	det.markDown(node)
	return t.promoteAway(node)
}

// promoteAway moves every responsibility off a down node: regions it
// primaries are promoted (most-caught-up live replica, force-shipped tail,
// epoch bump), and replica copies it hosts are evicted and re-seeded on
// healthy nodes.
func (t *Table) promoteAway(node int) error {
	det := t.det.Load()
	if det == nil {
		return fmt.Errorf("kvstore: failover not enabled on table %q", t.name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var errs []error
	for _, r := range t.regions {
		switch {
		case r.primary == node:
			if err := t.promoteRegionLocked(r, det); err != nil {
				errs = append(errs, fmt.Errorf("kvstore: promote region %d: %w", r.ID, err))
			}
		case replicaIndexOn(r.repl, node) >= 0:
			if err := t.evictReplicaLocked(r, node, det); err != nil {
				errs = append(errs, fmt.Errorf("kvstore: evict replica of region %d: %w", r.ID, err))
			}
		}
	}
	t.updateEpochGaugeLocked()
	return errors.Join(errs...)
}

// replicaIndexOn returns the index of the replica hosted on the node, or -1.
// The replicas slice is immutable after install, so no lock is needed.
func replicaIndexOn(rs *replicaSet, node int) int {
	if rs == nil {
		return -1
	}
	for i, rep := range rs.replicas {
		if rep.nodeID == node {
			return i
		}
	}
	return -1
}

// promoteRegionLocked cuts one region over from its down primary: pick the
// most-caught-up replica on a live node, force-ship it the retained WAL
// tail it has not observed (so every acked write is readable after
// cutover), bump the fencing epoch, swap the region's store and primary,
// and install a fresh replica set (lagging survivors keep catching up from
// the carried tail; replacements are re-seeded on healthy nodes). Caller
// holds the table write lock.
func (t *Table) promoteRegionLocked(r *Region, det *failureDetector) error {
	old := r.repl
	if old == nil || len(old.replicas) == 0 {
		return fmt.Errorf("no replica to promote")
	}
	old.mu.Lock()
	best := -1
	for i, rep := range old.replicas {
		if det.health(rep.nodeID) == NodeDown {
			continue
		}
		if best < 0 || rep.applied > old.replicas[best].applied {
			best = i
		}
	}
	if best < 0 {
		old.mu.Unlock()
		return fmt.Errorf("no live replica to promote")
	}
	winner := old.replicas[best]
	// Force-ship the tail the winner has not observed. This reads the
	// retained in-memory WAL tail directly — the durable history of every
	// acked write — and bypasses fault injection: promotion is recovery,
	// not workload.
	if err := winner.store.ApplyBatch(old.log[winner.applied-old.base:]); err != nil {
		old.mu.Unlock()
		return fmt.Errorf("force-ship tail: %w", err)
	}
	winner.applied = old.seq
	survivors := copySurvivors(old, func(i int, rep *replicaState) bool {
		return i != best && det.health(rep.nodeID) != NodeDown
	})
	seq := old.seq
	base, tail := carryTail(old, survivors, seq)
	old.retireLocked()
	old.mu.Unlock()

	nrs, reseedErr := t.assembleReplicaSetLocked(r.ID, winner.nodeID, det, survivors, seq, base, tail, winner.store)
	r.mu.Lock()
	deposed := r.store
	r.store = winner.store
	r.primary = winner.nodeID
	r.epoch++
	r.repl = nrs
	r.mu.Unlock()
	deposed.release()
	old.releaseStores(nrs, winner.store)
	mFailoverPromotes.Inc()
	return reseedErr
}

// evictReplicaLocked rebuilds a region's replica set without the down
// node's copy, re-seeding a replacement on a healthy node when one is
// available. Caller holds the table write lock.
func (t *Table) evictReplicaLocked(r *Region, node int, det *failureDetector) error {
	old := r.repl
	if old == nil {
		return nil
	}
	old.mu.Lock()
	survivors := copySurvivors(old, func(_ int, rep *replicaState) bool {
		return rep.nodeID != node
	})
	if len(survivors) == len(old.replicas) {
		old.mu.Unlock()
		return nil
	}
	seq := old.seq
	base, tail := carryTail(old, survivors, seq)
	old.retireLocked()
	old.mu.Unlock()

	nrs, err := t.assembleReplicaSetLocked(r.ID, r.primary, det, survivors, seq, base, tail, r.store)
	r.mu.Lock()
	r.repl = nrs
	r.mu.Unlock()
	old.releaseStores(nrs, nil)
	return err
}

// copySurvivors clones the replica states the keep predicate admits (clones
// so the retired set's states stop being shared). Caller holds old.mu.
func copySurvivors(old *replicaSet, keep func(i int, rep *replicaState) bool) []*replicaState {
	var out []*replicaState
	for i, rep := range old.replicas {
		if keep(i, rep) {
			out = append(out, &replicaState{store: rep.store, nodeID: rep.nodeID, applied: rep.applied})
		}
	}
	return out
}

// carryTail computes the log window [base, seq) the new replica set must
// retain so lagging survivors can still catch up. Caller holds old.mu.
func carryTail(old *replicaSet, survivors []*replicaState, seq uint64) (uint64, []Cell) {
	base := seq
	for _, rep := range survivors {
		if rep.applied < base {
			base = rep.applied
		}
	}
	if base >= seq {
		return seq, nil
	}
	return base, append([]Cell(nil), old.log[base-old.base:seq-old.base]...)
}

// assembleReplicaSetLocked builds and accounts a replacement replica set:
// the survivors keep their applied watermarks (with the carried tail to
// catch up from), and replacements are seeded from seedSrc — fully caught
// up — on healthy nodes not already hosting a copy. When no healthy node is
// free the region stays under-replicated until a RejoinNode. Caller holds
// the table write lock; the set is not yet published, so its fields are
// touched lock-free.
func (t *Table) assembleReplicaSetLocked(regionID, primaryNode int, det *failureDetector, survivors []*replicaState, seq, base uint64, tail []Cell, seedSrc *Store) (*replicaSet, error) {
	nrs := &replicaSet{
		replicas:  survivors,
		log:       tail,
		base:      base,
		seq:       seq,
		intercept: t.shipInterceptFor(regionID),
	}
	var reseedErr error
	if need := t.replicas - len(nrs.replicas); need > 0 {
		var cells []Cell
		seeded := false
		for i := 0; i < need; i++ {
			cand := t.pickReplicaNodeLocked(det, primaryNode, nrs)
			if cand < 0 {
				break
			}
			if !seeded {
				cells = seedSrc.rawCells()
				seeded = true
			}
			st, err := t.seedReplicaStore(regionID, cells)
			if err != nil {
				reseedErr = fmt.Errorf("re-seed replica: %w", err)
				break
			}
			nrs.replicas = append(nrs.replicas, &replicaState{store: st, nodeID: cand, applied: seq})
			mFailoverReseeds.Inc()
		}
	}
	mReplicationLag.Add(int64(nrs.lagLocked()))
	return nrs, reseedErr
}

// pickReplicaNodeLocked chooses the first healthy-or-suspect node, walking
// up from the primary's successor, that is neither the primary nor already
// hosting one of the set's replicas. Returns -1 when none qualifies.
func (t *Table) pickReplicaNodeLocked(det *failureDetector, primaryNode int, nrs *replicaSet) int {
	for off := 1; off < t.nodes; off++ {
		cand := (primaryNode + off) % t.nodes
		if det.health(cand) == NodeDown {
			continue
		}
		if replicaIndexOn(nrs, cand) >= 0 {
			continue
		}
		return cand
	}
	return -1
}

// RejoinNode re-admits a recovered node: the detector marks it healthy and
// every under-replicated region that does not already use the node gains a
// catching-up replica on it, seeded from the current primary. A rejoined
// node never re-enters as a primary — its old regions keep their promoted
// primaries and bumped epochs, so any write the zombie still tries with the
// old epoch stays fenced.
func (t *Table) RejoinNode(node int) error {
	det := t.det.Load()
	if det == nil {
		return fmt.Errorf("kvstore: failover not enabled on table %q", t.name)
	}
	if node < 0 || node >= t.nodes {
		return fmt.Errorf("kvstore: node %d out of range [0,%d)", node, t.nodes)
	}
	det.markRecovered(node)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.regions {
		old := r.repl
		if old == nil || r.primary == node {
			continue
		}
		if len(old.replicas) >= t.replicas || replicaIndexOn(old, node) >= 0 {
			continue
		}
		old.mu.Lock()
		survivors := copySurvivors(old, func(int, *replicaState) bool { return true })
		seq := old.seq
		base, tail := carryTail(old, survivors, seq)
		old.retireLocked()
		old.mu.Unlock()
		nrs, err := t.assembleReplicaSetLocked(r.ID, r.primary, det, survivors, seq, base, tail, r.store)
		r.mu.Lock()
		r.repl = nrs
		r.mu.Unlock()
		if err != nil {
			return err
		}
		if replicaIndexOn(nrs, node) >= 0 {
			mFailoverRejoins.Inc()
		}
	}
	return nil
}

// FailoverInProgress reports whether a write cutover is pending: an
// automatic promotion is running, or a node held down by the detector still
// owns a region's primary. The query envelope surfaces it so clients can
// tell degraded answers during a failover window from steady-state ones.
func (t *Table) FailoverInProgress() bool {
	det := t.det.Load()
	if det == nil {
		return false
	}
	if t.failoversActive.Load() > 0 {
		return true
	}
	down := det.downSet()
	if down == nil {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.regions {
		if down[r.primary] {
			return true
		}
	}
	return false
}

// WaitFailover blocks until no automatic promotion is in flight (or ctx
// fires). Tests and benches use it to observe a converged post-cutover
// state.
func (t *Table) WaitFailover(ctx context.Context) error {
	for t.failoversActive.Load() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// admitWrite gates one region run of a write (see Table.write) on the owning
// region: epoch fencing first (a fenced zombie write must never reach the
// WAL), then the primary's health, then the write-side fault injection
// point, whose failures feed the failure detector. Caller holds the table
// read lock, which is what makes the lock-free reads of r.primary/r.epoch
// safe (both mutate only under the table write lock).
func (t *Table) admitWrite(r *Region, epoch uint64) error {
	if epoch != 0 && epoch != r.epoch {
		mFailoverFenced.Inc()
		return fmt.Errorf("kvstore: region %d is at epoch %d, write carried %d: %w", r.ID, r.epoch, epoch, ErrEpochFenced)
	}
	det := t.det.Load()
	node := r.primary
	if det != nil && det.health(node) == NodeDown {
		return fmt.Errorf("kvstore: region %d node %d: %w", r.ID, node, ErrPrimaryDown)
	}
	if inj := t.writeInjector.Load(); inj != nil {
		d := inj.Decide(faultinject.Op{Kind: faultinject.OpPut, Node: node, Region: r.ID})
		if d.Stall > 0 {
			_ = faultinject.Sleep(context.Background(), d.Stall)
		}
		if d.Err != nil {
			det.recordFailure(node)
			return fmt.Errorf("kvstore: write to region %d node %d: %w", r.ID, node, d.Err)
		}
	}
	return nil
}

// noteWriteOK feeds a fully applied write back into the failure detector as
// evidence the primary is alive.
func (t *Table) noteWriteOK(r *Region) { t.det.Load().recordSuccess(r.primary) }

// noteReadFailure feeds a failed read attempt into the failure detector as
// evidence against the serving node. Read successes deliberately do not
// reset the failure count: a node whose write path is dead must still reach
// down even while its copies happen to serve reads (write successes do
// reset it).
func (t *Table) noteReadFailure(node int) { t.det.Load().recordFailure(node) }

// epochGaugeMu serializes the monotonic max update of the region-epoch
// gauge across tables.
var epochGaugeMu sync.Mutex

// updateEpochGaugeLocked publishes the table's highest region epoch onto
// the monotonic kvstore_region_epoch gauge. Caller holds the table write
// lock.
func (t *Table) updateEpochGaugeLocked() {
	var max uint64
	for _, r := range t.regions {
		if r.epoch > max {
			max = r.epoch
		}
	}
	epochGaugeMu.Lock()
	if int64(max) > mRegionEpoch.Value() {
		mRegionEpoch.Set(int64(max))
	}
	epochGaugeMu.Unlock()
}
