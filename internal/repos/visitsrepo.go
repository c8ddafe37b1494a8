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
	// SchemaReplicated reads every visit with its complete POI record, no
	// join needed — the design the paper adopted ("our experiments suggest
	// data replication to be more efficient"). A row names its document by
	// POI id and content hash, and the document is kept once per process
	// (model.InternPOI), where every region reads it locally.
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
// on the range-partitioned KV store. Under the replicated schema a visit
// reads back with its full POI document, the shared copy its row names;
// under the normalized schema readers must join against the POI repository.
//
// Rows are written and read with the compact binary visit codec
// (model/codec.go) and nothing else.
type VisitsRepo struct {
	table  *kvstore.Table
	schema VisitSchema
	// docs, on a durable repository, is the log its rows' shared documents
	// are made durable in before the rows are.
	docs *docsLog
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
	return newVisitsRepo(schema, maxUser, regions, nil, func(name string, splits []string) (*kvstore.Table, error) {
		return kvstore.NewTable(name, splits, nodes, opts)
	})
}

// NewDurableVisitsRepo is NewVisitsRepo over a durable table: every visit is
// group-committed to the WAL at walPath before it applies, and opening an
// existing log replays it (see kvstore.OpenDurableTable). The shared POI
// documents its rows name are kept in a second log beside it (walPath +
// ".docs"), loaded before the visits are replayed; a replicated row naming a
// document that log does not hold fails the open. Close the backing Table()
// to release the visits log; the documents log holds no open file.
func NewDurableVisitsRepo(schema VisitSchema, maxUser int64, regions, nodes int, opts kvstore.StoreOptions, walPath string) (*VisitsRepo, error) {
	docs, err := openDocsLog(docsLogPath(walPath), opts.WALSyncPolicy)
	if err != nil {
		return nil, err
	}
	return newVisitsRepo(schema, maxUser, regions, docs, func(name string, splits []string) (*kvstore.Table, error) {
		return kvstore.OpenDurableTable(name, splits, nodes, opts, walPath)
	})
}

// newVisitsRepo validates the sizing, opens the pre-split table through open
// and wraps it with its documents log, if durable.
func newVisitsRepo(schema VisitSchema, maxUser int64, regions int, docs *docsLog, open func(name string, splits []string) (*kvstore.Table, error)) (*VisitsRepo, error) {
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
	r, err := wrapVisitsTable(schema, table, docs)
	if err != nil {
		table.Close()
		return nil, err
	}
	return r, nil
}

// Schema returns the storage layout.
func (r *VisitsRepo) Schema() VisitSchema { return r.schema }

// Table exposes the backing table for the region fan-out.
func (r *VisitsRepo) Table() *kvstore.Table { return r.table }

// visitCell validates one visit and renders it as the cell StoreBatch
// writes, with the shared document the cell names under the replicated
// schema.
func (r *VisitsRepo) visitCell(v *model.Visit) (kvstore.Cell, sharedDoc, error) {
	if v.UserID < 1 {
		return kvstore.Cell{}, sharedDoc{}, fmt.Errorf("repos: visit with invalid user %d", v.UserID)
	}
	if v.POI.ID == 0 {
		return kvstore.Cell{}, sharedDoc{}, fmt.Errorf("repos: visit without POI")
	}
	if v.Time < 0 || v.Time > MaxVisitMillis {
		return kvstore.Cell{}, sharedDoc{}, fmt.Errorf("repos: visit time %d outside the row key's [0, %d]", v.Time, MaxVisitMillis)
	}
	var d sharedDoc
	var payload []byte
	if r.schema == SchemaReplicated {
		var err error
		if d.doc, d.hash, err = model.InternPOI(&v.POI); err != nil {
			return kvstore.Cell{}, sharedDoc{}, err
		}
		payload = model.EncodeVisitBinaryKeyed(v, d.hash)
	} else {
		payload = model.EncodeVisitBinaryNormalized(v)
	}
	key := visitRowKey(v.UserID, v.Time, r.seq.Add(1))
	return kvstore.Cell{Row: key, Qualifier: VisitQualifier, Timestamp: v.Time, Value: payload}, d, nil
}

// Store persists one visit: StoreBatch of one.
func (r *VisitsRepo) Store(v model.Visit) error { return r.StoreBatch([]model.Visit{v}) }

// StoreBatch persists a batch of visits through one table PutBatch: the
// whole batch costs one WAL commit-group slot and one store-lock acquisition
// per contiguous region run, which is what makes batched check-in ingest
// cheap. The write is bracketed by the SetOnStore observers. Validation runs
// up front — an invalid visit, or one whose POI document cannot be interned,
// fails the call (with its index) before anything is logged or applied — and
// so does the table's admission: a batch answered with an error (fence,
// primary down, injected fault) was neither logged nor applied, so retrying
// it cannot double it. A durable repository first makes the batch's new
// shared documents durable; the table's WAL never holds a row whose document
// its documents log lacks.
func (r *VisitsRepo) StoreBatch(visits []model.Visit) error {
	if len(visits) == 0 {
		return nil
	}
	cells := make([]kvstore.Cell, len(visits))
	var docs []sharedDoc
	if r.docs != nil && r.schema == SchemaReplicated {
		docs = make([]sharedDoc, len(visits))
	}
	for i := range visits {
		c, d, err := r.visitCell(&visits[i])
		if err != nil {
			return fmt.Errorf("repos: batch item %d: %w", i, err)
		}
		cells[i] = c
		if docs != nil {
			docs[i] = d
		}
	}
	if docs != nil {
		if err := r.docs.persist(docs); err != nil {
			return fmt.Errorf("repos: persist POI documents: %w", err)
		}
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

// DecodeVisit decodes a stored visit payload, keyed or normalized; any other
// is a decode error. A normalized row yields only POI.ID, which the caller
// joins; a keyed row, what the replicated schema writes, yields no user or
// time, which are its row key's. The tag says which layout it is, so the
// schema selects nothing; the repository benchmark calls this signature.
func DecodeVisit(_ VisitSchema, value []byte) (model.Visit, error) {
	return model.DecodeVisitBinary(value)
}

// ScanAll streams every stored visit (the HotIn job's input).
func (r *VisitsRepo) ScanAll(fn func(model.Visit) bool) error {
	return r.scan(kvstore.ScanOptions{}, fn)
}

// scan streams the visits of the rows opts covers, a keyed row's user and
// time read off its row key.
func (r *VisitsRepo) scan(opts kvstore.ScanOptions, fn func(model.Visit) bool) error {
	var decodeErr error
	err := r.table.Scan(opts, func(row kvstore.RowResult) bool {
		raw, ok := row.Get(VisitQualifier)
		if !ok {
			return true
		}
		v, err := DecodeVisit(r.schema, raw)
		if err == nil && raw[0] == model.VisitBinaryTagKeyed {
			v.UserID, v.Time, _, err = parseVisitRowKey(row.Row)
		}
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

// wrapVisitsTable wraps a table and, if durable, its documents log as a
// Visits repository. One pass over the rows seeds the sequence past the
// highest one present — a repository reopened over a replayed log would
// otherwise hand out the sequence numbers of the rows it holds again, and a
// visit at the user and millisecond of a replayed one would overwrite it —
// and, over a durable table, parses every row: one of a layout this build
// does not read, or one naming a document docs lacks, fails the boot naming
// its row instead of a query later.
func wrapVisitsTable(schema VisitSchema, table *kvstore.Table, docs *docsLog) (*VisitsRepo, error) {
	if table == nil {
		return nil, fmt.Errorf("repos: nil table")
	}
	r := &VisitsRepo{table: table, schema: schema, docs: docs}
	var top uint32
	var docErr error
	var v model.VisitView
	err := table.Scan(kvstore.ScanOptions{}, func(row kvstore.RowResult) bool {
		if seq, ok := visitKeySeq(row.Row); ok && seq > top {
			top = seq
		}
		raw, ok := row.Get(VisitQualifier)
		if docs == nil || !ok {
			return true
		}
		if err := v.Parse(raw); err != nil {
			docErr = fmt.Errorf("repos: visit row %q: %w", row.Row, err)
		} else if doc := v.SharedDoc(); doc != nil && !docs.holds(doc) {
			docErr = fmt.Errorf("repos: visit row %q names a document of POI %d that %s does not hold", row.Row, v.POIID, docs.path)
		}
		return docErr == nil
	})
	if err != nil {
		return nil, fmt.Errorf("repos: seed visit sequence: %w", err)
	}
	if docErr != nil {
		return nil, docErr
	}
	r.seq.Store(top)
	return r, nil
}
