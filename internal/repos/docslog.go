package repos

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"modissense/internal/kvstore"
	"modissense/internal/model"
)

// docsLog is the durable table of the shared POI documents a durable Visits
// repository's rows name (model.InternPOI): an append-only log beside the
// visits WAL, at docsLogPath of it, in the kvstore WAL format. Each record
// holds one document as a cell: the row is docRow(id, hash), the value the
// document as an embedded-document visit payload (model.EncodeVisitBinary of
// a visit that is all zero but its POI).
//
// Ordering: a batch writes the documents it names that the log does not
// hold yet, and returns once they are durable, before its visit rows reach
// the table's WAL; booting loads the log into the shared table before the
// visits WAL is replayed. A document is written once per log and never
// removed.
type docsLog struct {
	path   string
	policy kvstore.SyncPolicy
	// mu serializes persist: a batch naming a document another batch is
	// still writing waits for that write instead of skipping it.
	mu sync.Mutex
	// held is every document the log holds, by its shared copy.
	held map[*model.POI]struct{}
}

// sharedDoc is a shared document with its content hash.
type sharedDoc struct {
	doc  *model.POI
	hash uint64
}

// docsLogPath is where the documents log of the visits WAL at walPath lives.
func docsLogPath(walPath string) string { return walPath + ".docs" }

// docRow is a document's row in the log: its POI id and content hash.
func docRow(id int64, hash uint64) string {
	return strconv.FormatInt(id, 10) + "|" + strconv.FormatUint(hash, 16)
}

// openDocsLog loads the log at path, if there is one, into the shared table.
// A record whose row does not match its document's id and hash is
// corruption, and fails the open.
func openDocsLog(path string, policy kvstore.SyncPolicy) (*docsLog, error) {
	l := &docsLog{path: path, policy: policy, held: map[*model.POI]struct{}{}}
	err := kvstore.ReplayWAL(path, func(c kvstore.Cell) error {
		v, err := model.DecodeVisitBinary(c.Value)
		if err != nil {
			return fmt.Errorf("document %q: %w", c.Row, err)
		}
		doc, hash, err := model.InternPOI(&v.POI)
		if err != nil {
			return fmt.Errorf("document %q: %w", c.Row, err)
		}
		if row := docRow(doc.ID, hash); row != c.Row {
			return fmt.Errorf("document %q holds the document of row %q", c.Row, row)
		}
		l.held[doc] = struct{}{}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("repos: load POI documents %q: %w", path, err)
	}
	return l, nil
}

// holds reports whether the log holds doc, a shared copy.
func (l *docsLog) holds(doc *model.POI) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.held[doc]
	return ok
}

// persist makes every document of docs durable in the log, writing those it
// does not hold yet as one record.
func (l *docsLog) persist(docs []sharedDoc) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var fresh []sharedDoc
	for _, d := range docs {
		if _, ok := l.held[d.doc]; !ok && !slices.Contains(fresh, d) {
			fresh = append(fresh, d)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	cells := make([]kvstore.Cell, len(fresh))
	for i, d := range fresh {
		cells[i] = kvstore.Cell{Row: docRow(d.doc.ID, d.hash), Qualifier: "d", Value: model.EncodeVisitBinary(&model.Visit{POI: *d.doc})}
	}
	w, err := kvstore.OpenGroupCommitWAL(l.path, l.policy)
	if err != nil {
		return err
	}
	err = w.AppendBatch(cells)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for _, d := range fresh {
		l.held[d.doc] = struct{}{}
	}
	return nil
}
