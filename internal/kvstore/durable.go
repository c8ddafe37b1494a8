package kvstore

import "fmt"

// Durable tables: a table-level write-ahead log shared by all regions.
// Region stores keep no log; the table appends every admitted write to one
// log before applying it, and OpenDurableTable replays the log through normal
// routing on startup — so recovery is correct across any pre-split layout
// and even across region splits (replayed cells simply route to whatever
// region owns the key now).
//
// The log is a GroupCommitWAL: concurrent writers share commit groups, so
// the table pays one buffered write (and, under SyncGroup, one fsync) per
// group rather than per put. StoreOptions.WALSyncPolicy picks the policy
// (default SyncOS).

// OpenDurableTable opens (creating if absent) the WAL at walPath, builds a
// table with the given pre-splits, replays every logged mutation into it,
// and arranges for future mutations to be logged before they apply. Close
// the table to flush and release the log.
func OpenDurableTable(name string, splitKeys []string, nodes int, opts StoreOptions, walPath string) (*Table, error) {
	if walPath == "" {
		return nil, fmt.Errorf("kvstore: empty WAL path for durable table %q", name)
	}
	t, err := NewTable(name, splitKeys, nodes, opts)
	if err != nil {
		return nil, err
	}
	// Replay BEFORE attaching the log: replayed cells must not re-append.
	err = ReplayWAL(walPath, func(c Cell) error {
		return t.RegionFor(c.Row).Store().ApplyBatch([]Cell{c})
	})
	if err != nil {
		return nil, fmt.Errorf("kvstore: replay %q: %w", walPath, err)
	}
	w, err := OpenGroupCommitWAL(walPath, opts.WALSyncPolicy)
	if err != nil {
		return nil, err
	}
	t.wal = w
	return t, nil
}

// Close flushes and releases the table's WAL (no-op for non-durable
// tables). The table must not be mutated afterwards.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil {
		return nil
	}
	err := t.wal.Close()
	t.wal = nil
	return err
}
