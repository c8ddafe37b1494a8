package kvstore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"modissense/internal/faultinject"
)

// Region is one contiguous key range of a table, backed by its own LSM
// store — the unit of distribution and of coprocessor execution, exactly as
// in HBase. StartKey is inclusive, the end key exclusive; empty means
// unbounded. ID and StartKey are fixed at creation; the end key and backing
// store change when the region splits, and the primary node, store and
// epoch change when a failover promotes a replica — all guarded by mu (and
// mutated only under the table write lock, so the write path may read them
// under the table read lock alone).
type Region struct {
	ID       int
	StartKey string
	// NodeID is the simulated cluster node the region was created on (its
	// home node). The current write primary may differ after a failover —
	// see PrimaryNode; frozen views and ReadView(0) carry the current
	// primary in their NodeID.
	NodeID int

	mu     sync.RWMutex
	endKey string
	store  *Store
	// repl holds the region's read replicas and WAL-shipping state when
	// Table.EnableReplication is on (nil otherwise). See replication.go.
	repl *replicaSet
	// primary is the node currently serving writes (initially NodeID; a
	// promotion moves it). epoch is the monotonic fencing token, bumped on
	// every promotion: writes carrying a stale epoch are rejected, which
	// is what keeps a zombie primary's late writes out. See failover.go.
	primary int
	epoch   uint64
}

// EndKey returns the region's exclusive upper bound ("" = unbounded). A
// concurrent split may shrink it; region functions and scans never observe
// that because they run against frozen region views (see frozen).
func (r *Region) EndKey() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.endKey
}

// Store exposes the region's backing store to coprocessors; they run
// "inside" the region and may only touch local data, which is what makes
// the fan-out parallelism of the personalized query path honest.
func (r *Region) Store() *Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store
}

// frozen returns a point-in-time copy of the region. The copy's store and
// end key can never change under a running coprocessor: a concurrent
// SplitRegion builds *new* stores for both halves and swaps them in, so the
// frozen store keeps serving the full pre-split range consistently.
func (r *Region) frozen() *Region {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return &Region{
		ID:       r.ID,
		StartKey: r.StartKey,
		NodeID:   r.primary,
		endKey:   r.endKey,
		store:    r.store,
		// The replica stores are never rewritten by a split or a promotion
		// (both build fresh replica sets), so a frozen view's replicas stay
		// consistent with its frozen primary store.
		repl:    r.repl,
		primary: r.primary,
		epoch:   r.epoch,
	}
}

// PrimaryNode returns the node currently serving the region's writes: the
// home node until a failover promotes a replica hosted elsewhere.
func (r *Region) PrimaryNode() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.primary
}

// Epoch returns the region's fencing epoch. Epochs start at 1 and bump on
// every failover promotion; Table.PutFenced rejects writes carrying any
// other value, fencing off a zombie primary's late writes.
func (r *Region) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Table is an ordered collection of regions covering the whole key space.
// Tables route puts/gets/scans to regions and fan coprocessors out across
// them. Safe for concurrent use; region splits take the table lock.
//
// Lock order is always table.mu before region.mu. Mutations (Put/Delete)
// hold the table read lock across the store write so a concurrent split —
// which rewrites the region's cells into two fresh stores under the table
// write lock — can never strand a write in an orphaned store.
type Table struct {
	mu      sync.RWMutex
	name    string
	regions []*Region // sorted by StartKey, first has StartKey ""
	opts    StoreOptions
	nextID  int
	nodes   int
	// wal, when non-nil, logs every mutation before it applies (durable
	// tables; see OpenDurableTable). Group commit batches the concurrent
	// region writers' appends into shared commit groups.
	wal *GroupCommitWAL
	// replicas is the read-replica count; zero means replication is off
	// (see EnableReplication).
	replicas int
	// det is the per-node failure detector (nil until EnableFailover) and
	// writeInjector the write-side fault harness; both are atomics so the
	// write and ship paths read them lock-free. failoversActive counts
	// in-flight automatic promotions. See failover.go.
	det             atomic.Pointer[failureDetector]
	writeInjector   atomic.Pointer[faultinject.Injector]
	failoversActive atomic.Int64
}

// NewTable creates a table pre-split at the given keys (may be empty for a
// single region) with regions assigned round-robin across `nodes` simulated
// cluster nodes.
func NewTable(name string, splitKeys []string, nodes int, opts StoreOptions) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("kvstore: empty table name")
	}
	if nodes < 1 {
		return nil, fmt.Errorf("kvstore: table %q needs nodes >= 1, got %d", name, nodes)
	}
	keys := append([]string(nil), splitKeys...)
	sort.Strings(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return nil, fmt.Errorf("kvstore: duplicate split key %q", keys[i])
		}
	}
	for _, k := range keys {
		if k == "" {
			return nil, fmt.Errorf("kvstore: empty split key")
		}
	}
	t := &Table{name: name, opts: opts, nodes: nodes}
	bounds := append([]string{""}, keys...)
	for i, start := range bounds {
		end := ""
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		st, err := NewStore(storeOptsForRegion(opts, t.nextID))
		if err != nil {
			return nil, err
		}
		t.regions = append(t.regions, &Region{
			ID:       t.nextID,
			StartKey: start,
			NodeID:   t.nextID % nodes,
			endKey:   end,
			store:    st,
			primary:  t.nextID % nodes,
			epoch:    1,
		})
		t.nextID++
	}
	return t, nil
}

func storeOptsForRegion(opts StoreOptions, regionID int) StoreOptions {
	opts.Seed = opts.Seed*1000003 + int64(regionID)
	return opts
}

// NumRegions returns the current region count.
func (t *Table) NumRegions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.regions)
}

// Regions returns a snapshot of the current regions in key order.
func (t *Table) Regions() []*Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Region(nil), t.regions...)
}

// frozenRegions captures a point-in-time view of every region under the
// table lock: one consistent cut that no concurrent split can disturb.
func (t *Table) frozenRegions() []*Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Region, len(t.regions))
	for i, r := range t.regions {
		out[i] = r.frozen()
	}
	return out
}

// regionFor returns the region containing the row key. Caller holds t.mu.
func (t *Table) regionFor(row string) *Region {
	// regions[i].StartKey <= row < regions[i].endKey; find the last region
	// whose StartKey <= row.
	i := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].StartKey > row
	}) - 1
	if i < 0 {
		i = 0
	}
	return t.regions[i]
}

// RegionFor exposes routing for tests and placement-aware callers.
func (t *Table) RegionFor(row string) *Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.regionFor(row)
}

// Put writes one versioned cell: the one-cell form of PutBatch. The table
// takes ownership of value's bytes.
func (t *Table) Put(row, qualifier string, timestamp int64, value []byte) error {
	return t.write([]Cell{{Row: row, Qualifier: qualifier, Timestamp: timestamp, Value: value}}, 0)
}

// PutFenced is Put gated on the owning region's failover epoch: the write
// is rejected with ErrEpochFenced unless epoch equals the region's current
// epoch (see Region.Epoch; 0 means unfenced, i.e. plain Put). A zombie
// primary — a node declared down whose writes arrive after its region was
// promoted away — carries the pre-promotion epoch and is rejected here,
// which is what guarantees its late writes can never land.
func (t *Table) PutFenced(row, qualifier string, timestamp int64, value []byte, epoch uint64) error {
	return t.write([]Cell{{Row: row, Qualifier: qualifier, Timestamp: timestamp, Value: value}}, epoch)
}

// PutBatch writes the cells, puts and tombstones alike, in input order: one
// commit-group slot in the log for the whole call and one store lock
// acquisition per run of consecutive cells owned by the same region. A call
// answered with an error by admission (see write) is neither logged nor
// applied to any region.
//
// Value ownership: a write takes ownership of its cells' Value bytes — the
// memtable stores the slice without copying, so the caller must not modify
// it afterwards, whatever the call returned. In return, the Value bytes any
// read delivers are never rewritten, by the store or anyone: the memtable
// holds the writer's bytes, and a segment block's values alias its decoded
// payload, which is built once and never reused, so flushes, compactions,
// cache evictions and later writes leave them as they were. A reader may
// retain a delivered Value slice without copying it.
func (t *Table) PutBatch(cells []Cell) error { return t.write(cells, 0) }

// eachRun calls fn, in order, with every run of consecutive cells owned by
// the same region, stopping at the first error. Caller holds t.mu, which is
// what keeps the regions' bounds still.
func (t *Table) eachRun(cells []Cell, fn func(r *Region, run []Cell) error) error {
	for lo := 0; lo < len(cells); {
		r := t.regionFor(cells[lo].Row)
		hi := lo + 1
		for hi < len(cells) && cells[hi].Row >= r.StartKey && (r.endKey == "" || cells[hi].Row < r.endKey) {
			hi++
		}
		if err := fn(r, cells[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// write is the table's one write path; Put, PutFenced, Delete and PutBatch
// are its forms. In order: validate every row key; admit each same-region
// run exactly once (a non-zero fence epoch applies to every run, then primary
// health, then op=put fault injection); only when every run is admitted,
// append the whole call to the log as one unit (durable tables); then per run
// apply to the region's store, hand the run to its replica shipping log and
// feed the success to the failure detector. Admission precedes the log so
// that a rejected write leaves no trace, live or after a reboot — the
// caller's retry can never double it. After the log append only a store that
// cannot accept writes (a sticky flush failure) stops the call; the log then
// holds the whole call and replay completes it.
//
// The table read lock is held across the store writes so that no cell can
// land in a store a concurrent split just retired, and so that the regions'
// primaries and epochs cannot change between admission and apply.
func (t *Table) write(cells []Cell, epoch uint64) error {
	for i := range cells {
		if cells[i].Row == "" {
			return fmt.Errorf("kvstore: empty row key in cell %d of the write", i)
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	err := t.eachRun(cells, func(r *Region, _ []Cell) error { return t.admitWrite(r, epoch) })
	if err != nil {
		return err
	}
	if t.wal != nil {
		if err := t.wal.AppendBatch(cells); err != nil {
			return fmt.Errorf("kvstore: table wal: %w", err)
		}
	}
	return t.eachRun(cells, func(r *Region, run []Cell) error {
		if err := r.store.ApplyBatch(run); err != nil {
			return err
		}
		if rs := r.replicaSet(); rs != nil {
			if err := rs.appendBatch(run); err != nil {
				return err
			}
		}
		t.noteWriteOK(r)
		return nil
	})
}

// WritePressure returns the table's hottest region's write pressure (0 =
// idle, 1 = stalled) — the admission layer's memtable-pressure signal.
func (t *Table) WritePressure() float64 {
	p := 0.0
	for _, r := range t.Regions() {
		if v := r.Store().WritePressure(); v > p {
			p = v
		}
	}
	return p
}

// WaitMaintenance blocks until every region's background flush and
// compaction work is drained (see Store.WaitMaintenance).
func (t *Table) WaitMaintenance() error {
	for _, r := range t.Regions() {
		if err := r.Store().WaitMaintenance(); err != nil {
			return err
		}
	}
	return nil
}

// Scan streams rows across all regions intersecting the range, in global
// key order.
func (t *Table) Scan(opts ScanOptions, fn func(RowResult) bool) error {
	return t.ScanCtx(context.Background(), opts, fn)
}

// ScanCtx is Scan with cancellation: the one-range case of MultiScanCtx,
// with its semantics (including the reused RowResult backing slice).
func (t *Table) ScanCtx(ctx context.Context, opts ScanOptions, fn func(RowResult) bool) error {
	return t.MultiScanCtx(ctx, opts.oneRange(), opts.AsOf, fn)
}

// SplitRegion splits the region containing splitKey at splitKey: the upper
// half of the data moves into a fresh region. It reproduces HBase's
// split-for-parallelism behaviour used by the paper ("increasing the
// regions number ... achieves higher degree of parallelism within a single
// query").
func (t *Table) SplitRegion(splitKey string) error {
	if splitKey == "" {
		return fmt.Errorf("kvstore: empty split key")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.regionFor(splitKey)
	if r.StartKey == splitKey {
		return fmt.Errorf("kvstore: region already starts at %q", splitKey)
	}
	upper, err := NewStore(storeOptsForRegion(t.opts, t.nextID))
	if err != nil {
		return err
	}
	lower, err := NewStore(storeOptsForRegion(t.opts, t.nextID+1))
	if err != nil {
		return err
	}
	// Rewrite the region's cells into the two halves. Raw cells (including
	// tombstones) preserve full version history across the split. The old
	// store only leaves the gauges (release): frozen views handed to
	// in-flight coprocessors keep reading a consistent full-range snapshot.
	cells := r.store.rawCells()
	cut := sort.Search(len(cells), func(i int) bool { return cells[i].Row >= splitKey })
	if err := lower.ApplyBatch(cells[:cut]); err != nil {
		return err
	}
	if err := upper.ApplyBatch(cells[cut:]); err != nil {
		return err
	}
	newRegion := &Region{
		ID:       t.nextID,
		StartKey: splitKey,
		NodeID:   t.nextID % t.nodes,
		endKey:   r.endKey,
		store:    upper,
		primary:  t.nextID % t.nodes,
		epoch:    1,
	}
	t.nextID++
	// A replicated table rebuilds both halves' replica sets from the fresh
	// post-split stores (unshipped WAL-tail entries are already inside the
	// rewritten cells, so they are dropped rather than double-applied). The
	// old set is only retired from the gauges: frozen views that captured
	// its stores keep a consistent pre-split snapshot.
	var lowerRepl, upperRepl *replicaSet
	if t.replicas > 0 {
		if lowerRepl, err = t.newReplicaSet(r.ID, r.primary, lower); err != nil {
			return err
		}
		if upperRepl, err = t.newReplicaSet(newRegion.ID, newRegion.primary, upper); err != nil {
			return err
		}
		newRegion.repl = upperRepl
	}
	r.mu.Lock()
	oldStore, oldRepl := r.store, r.repl
	r.endKey = splitKey
	r.store = lower
	r.repl = lowerRepl
	r.mu.Unlock()
	oldStore.release()
	if oldRepl != nil {
		oldRepl.retire()
	}
	// Insert newRegion right after r.
	idx := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].StartKey > splitKey
	})
	t.regions = append(t.regions, nil)
	copy(t.regions[idx+1:], t.regions[idx:])
	t.regions[idx] = newRegion
	return nil
}

// rawCells returns every stored cell (all versions, tombstones included) in
// sorted order. Used by region splits.
func (s *Store) rawCells() []Cell {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var bs blockScanStats
	defer bs.flush()
	its, _ := s.iteratorsLocked(nil, nil, &bs, nil)
	merged := newMergeIterator(its)
	var out []Cell
	for merged.valid() {
		out = append(out, *merged.cell())
		merged.next()
	}
	return out
}
