package relstore

import (
	"fmt"
	"sync"
)

// DB is a named collection of tables — the "PostgreSQL server" of the
// platform. Safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable creates and registers a table.
func (db *DB) CreateTable(name string, schema *Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("relstore: table %q already exists", name)
	}
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}
