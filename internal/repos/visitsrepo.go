package repos

import (
	"fmt"
	"sync/atomic"

	"modissense/internal/kvstore"
	"modissense/internal/model"
)

// VisitSchema selects the Visits repository storage layout.
type VisitSchema int

const (
	// SchemaReplicated embeds the complete POI record in every visit row —
	// the design the paper adopted ("our experiments suggest data
	// replication to be more efficient").
	SchemaReplicated VisitSchema = iota
	// SchemaNormalized stores only the POI id and joins POI information at
	// query time — the alternative the paper rejected; kept for the
	// ablation experiment.
	SchemaNormalized
)

// String implements fmt.Stringer.
func (s VisitSchema) String() string {
	if s == SchemaNormalized {
		return "normalized"
	}
	return "replicated"
}

// VisitQualifier is the single column a visit row stores; coprocessors
// read it directly during region-local scans.
const VisitQualifier = "v"

// VisitsRepo is the Visits repository: one row per (user, time, seq) visit
// on the range-partitioned KV store. Under the replicated schema the visit
// struct carries full POI info; under the normalized schema readers must
// join against the POI repository.
//
// Rows are written and read with the compact binary visit codec
// (model/codec.go) and nothing else.
type VisitsRepo struct {
	table  *kvstore.Table
	schema VisitSchema
	// seq keeps same-millisecond visits of one user on distinct rows. It
	// starts past every sequence number the table already holds.
	seq atomic.Uint32
	// announce and settle, when set, bracket every batch's table write —
	// the platform hangs the trending view, the result cache and the pub/sub
	// matcher here, so API ingest and the collector feed them alike. Set
	// once at wiring time, before the repository serves concurrent writes.
	announce func([]model.Visit)
	settle   func(visits []model.Visit, committed bool)
}

// SetOnStore installs the observers of the visit stream (single Stores
// arrive as one-element batches). announce, which may be nil, sees a
// validated batch just before the table write can make any of its rows
// visible to a scan; settle sees the same slice right after, with whether the
// write committed. A write reported as not committed was refused before it
// was logged in the usual case, but one that failed after its log append may
// have applied in part. Both run synchronously on the writer's goroutine;
// they must be fast and must not call back into the repository. Install them
// during wiring, before concurrent writes start.
func (r *VisitsRepo) SetOnStore(announce func([]model.Visit), settle func(visits []model.Visit, committed bool)) {
	r.announce, r.settle = announce, settle
}

// NewVisitsRepo creates the repository over a table pre-split into
// `regions` user ranges placed round-robin on `nodes` simulated nodes.
func NewVisitsRepo(schema VisitSchema, maxUser int64, regions, nodes int, opts kvstore.StoreOptions) (*VisitsRepo, error) {
	return newVisitsRepo(schema, maxUser, regions, func(name string, splits []string) (*kvstore.Table, error) {
		return kvstore.NewTable(name, splits, nodes, opts)
	})
}

// NewDurableVisitsRepo is NewVisitsRepo over a durable table: every visit is
// group-committed to the WAL at walPath before it applies, and opening an
// existing log replays it (see kvstore.OpenDurableTable). Close the backing
// Table() to release the log.
func NewDurableVisitsRepo(schema VisitSchema, maxUser int64, regions, nodes int, opts kvstore.StoreOptions, walPath string) (*VisitsRepo, error) {
	return newVisitsRepo(schema, maxUser, regions, func(name string, splits []string) (*kvstore.Table, error) {
		return kvstore.OpenDurableTable(name, splits, nodes, opts, walPath)
	})
}

// newVisitsRepo validates the sizing, opens the pre-split table through open
// and wraps it.
func newVisitsRepo(schema VisitSchema, maxUser int64, regions int, open func(name string, splits []string) (*kvstore.Table, error)) (*VisitsRepo, error) {
	if maxUser < 1 {
		return nil, fmt.Errorf("repos: maxUser must be >= 1, got %d", maxUser)
	}
	if regions < 1 {
		return nil, fmt.Errorf("repos: regions must be >= 1, got %d", regions)
	}
	table, err := open("visits-"+schema.String(), userSplitKeys(maxUser, regions))
	if err != nil {
		return nil, err
	}
	return NewVisitsRepoFromTable(schema, table)
}

// Schema returns the storage layout.
func (r *VisitsRepo) Schema() VisitSchema { return r.schema }

// Table exposes the backing table for the region fan-out.
func (r *VisitsRepo) Table() *kvstore.Table { return r.table }

// visitCell validates one visit and renders it as the cell StoreBatch
// writes.
func (r *VisitsRepo) visitCell(v model.Visit) (kvstore.Cell, error) {
	if v.UserID < 1 {
		return kvstore.Cell{}, fmt.Errorf("repos: visit with invalid user %d", v.UserID)
	}
	if v.POI.ID == 0 {
		return kvstore.Cell{}, fmt.Errorf("repos: visit without POI")
	}
	key := visitRowKey(v.UserID, v.Time, r.seq.Add(1))
	var payload []byte
	if r.schema == SchemaReplicated {
		payload = model.EncodeVisitBinary(&v)
	} else {
		payload = model.EncodeVisitBinaryNormalized(&v)
	}
	return kvstore.Cell{Row: key, Qualifier: VisitQualifier, Timestamp: v.Time, Value: payload}, nil
}

// Store persists one visit: StoreBatch of one.
func (r *VisitsRepo) Store(v model.Visit) error { return r.StoreBatch([]model.Visit{v}) }

// StoreBatch persists a batch of visits through one table PutBatch: the
// whole batch costs one WAL commit-group slot and one store-lock acquisition
// per contiguous region run, which is what makes batched check-in ingest
// cheap. The write is bracketed by the SetOnStore observers. Validation runs
// up front — an invalid visit fails the call (with
// its index) before anything is logged or applied — and so does the table's
// admission: a batch answered with an error (fence, primary down, injected
// fault) was neither logged nor applied, so retrying it cannot double it.
func (r *VisitsRepo) StoreBatch(visits []model.Visit) error {
	if len(visits) == 0 {
		return nil
	}
	cells := make([]kvstore.Cell, len(visits))
	for i := range visits {
		c, err := r.visitCell(visits[i])
		if err != nil {
			return fmt.Errorf("repos: batch item %d: %w", i, err)
		}
		cells[i] = c
	}
	if r.announce != nil {
		r.announce(visits)
	}
	err := r.table.PutBatch(cells)
	if r.settle != nil {
		r.settle(visits, err == nil)
	}
	return err
}

// DecodeVisit decodes a stored visit row of either binary layout; any other
// payload is a decode error. A normalized row yields a Visit carrying only
// POI.ID; the caller joins the rest. The payload's tag says which layout it
// is, so the schema selects nothing; the repository benchmark calls this
// signature.
func DecodeVisit(_ VisitSchema, value []byte) (model.Visit, error) {
	return model.DecodeVisitBinary(value)
}

// ScanAll streams every stored visit (the HotIn job's input).
func (r *VisitsRepo) ScanAll(fn func(model.Visit) bool) error {
	return r.scan(kvstore.ScanOptions{}, fn)
}

func (r *VisitsRepo) scan(opts kvstore.ScanOptions, fn func(model.Visit) bool) error {
	var decodeErr error
	err := r.table.Scan(opts, func(row kvstore.RowResult) bool {
		raw, ok := row.Get(VisitQualifier)
		if !ok {
			return true
		}
		v, err := DecodeVisit(r.schema, raw)
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(v)
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

// NewVisitsRepoFromTable wraps an existing table (e.g. a durable one from
// kvstore.OpenDurableTable) as a Visits repository. The table's key layout
// must follow this package's visit row-key encoding — which holds for any
// table previously populated through a VisitsRepo. One pass over the row
// keys (no payload is decoded) seeds the sequence past the highest one
// present: a repository reopened over a replayed log would otherwise hand out
// the sequence numbers of the rows it holds again, and a visit at the user
// and millisecond of a replayed one would overwrite it.
func NewVisitsRepoFromTable(schema VisitSchema, table *kvstore.Table) (*VisitsRepo, error) {
	if table == nil {
		return nil, fmt.Errorf("repos: nil table")
	}
	r := &VisitsRepo{table: table, schema: schema}
	var top uint32
	err := table.Scan(kvstore.ScanOptions{}, func(row kvstore.RowResult) bool {
		if seq, ok := visitKeySeq(row.Row); ok && seq > top {
			top = seq
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("repos: seed visit sequence: %w", err)
	}
	r.seq.Store(top)
	return r, nil
}
