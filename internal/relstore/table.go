package relstore

import (
	"fmt"
	"sort"
	"sync"

	"modissense/internal/geo"
)

// Table is a typed relational table with optional B-tree and spatial
// indexes. All operations are safe for concurrent use.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  *Schema
	rows    map[int64]Row
	indexes map[string]*btree // column name → index
	spatial *spatialIndex
}

// spatialIndex indexes two Float columns (lat, lon) with an R-tree.
type spatialIndex struct {
	latCol, lonCol int
	tree           *geo.RTree
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("relstore: empty table name")
	}
	if schema == nil {
		return nil, fmt.Errorf("relstore: nil schema")
	}
	return &Table{
		name:    name,
		schema:  schema,
		rows:    make(map[int64]Row),
		indexes: make(map[string]*btree),
	}, nil
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// CreateIndex builds a B-tree index on the named column, indexing existing
// rows. Creating an index twice is an error.
func (t *Table) CreateIndex(column string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := t.schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("relstore: no column %q in table %q", column, t.name)
	}
	if _, exists := t.indexes[column]; exists {
		return fmt.Errorf("relstore: index on %q already exists", column)
	}
	idx, err := newBTree(16)
	if err != nil {
		return err
	}
	for id, row := range t.rows {
		idx.insert(row[ci], id)
	}
	t.indexes[column] = idx
	return nil
}

// CreateSpatialIndex builds an R-tree over the given latitude/longitude
// Float columns. Only one spatial index per table is supported.
func (t *Table) CreateSpatialIndex(latColumn, lonColumn string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spatial != nil {
		return fmt.Errorf("relstore: table %q already has a spatial index", t.name)
	}
	latCI := t.schema.ColIndex(latColumn)
	lonCI := t.schema.ColIndex(lonColumn)
	if latCI < 0 || lonCI < 0 {
		return fmt.Errorf("relstore: spatial columns %q/%q not found", latColumn, lonColumn)
	}
	if t.schema.Columns[latCI].Type != Float || t.schema.Columns[lonCI].Type != Float {
		return fmt.Errorf("relstore: spatial columns must be Float")
	}
	tree, err := geo.NewRTree(16)
	if err != nil {
		return err
	}
	for id, row := range t.rows {
		tree.InsertPoint(id, geo.Point{Lat: row[latCI].F, Lon: row[lonCI].F})
	}
	t.spatial = &spatialIndex{latCol: latCI, lonCol: lonCI, tree: tree}
	return nil
}

// Insert adds a row; the primary key (column 0) must be unique.
func (t *Table) Insert(r Row) error {
	if err := t.schema.validate(r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := r[0].I
	if _, dup := t.rows[id]; dup {
		return fmt.Errorf("relstore: duplicate primary key %d in table %q", id, t.name)
	}
	stored := append(Row(nil), r...)
	t.rows[id] = stored
	for col, idx := range t.indexes {
		idx.insert(stored[t.schema.ColIndex(col)], id)
	}
	if t.spatial != nil {
		t.spatial.tree.InsertPoint(id, geo.Point{Lat: stored[t.spatial.latCol].F, Lon: stored[t.spatial.lonCol].F})
	}
	return nil
}

// Get returns a copy of the row with the given primary key.
func (t *Table) Get(id int64) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	return append(Row(nil), r...), true
}

// Update replaces the row with the same primary key, maintaining indexes.
func (t *Table) Update(r Row) error {
	if err := t.schema.validate(r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := r[0].I
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("relstore: update of missing primary key %d in table %q", id, t.name)
	}
	stored := append(Row(nil), r...)
	for col, idx := range t.indexes {
		ci := t.schema.ColIndex(col)
		if old[ci].Compare(stored[ci]) != 0 {
			idx.delete(old[ci], id)
			idx.insert(stored[ci], id)
		}
	}
	if t.spatial != nil {
		oldPt := geo.Point{Lat: old[t.spatial.latCol].F, Lon: old[t.spatial.lonCol].F}
		newPt := geo.Point{Lat: stored[t.spatial.latCol].F, Lon: stored[t.spatial.lonCol].F}
		if oldPt != newPt {
			if !t.spatial.tree.DeletePoint(id, oldPt) {
				return fmt.Errorf("relstore: spatial index out of sync for row %d", id)
			}
			t.spatial.tree.InsertPoint(id, newPt)
		}
	}
	t.rows[id] = stored
	return nil
}

// scanAllIDs returns all primary keys in ascending order (deterministic
// full-scan order).
func (t *Table) scanAllIDs() []int64 {
	ids := make([]int64, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
