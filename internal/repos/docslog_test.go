package repos

import (
	"os"
	"path/filepath"
	"testing"

	"modissense/internal/kvstore"
	"modissense/internal/model"
)

// TestDocsLogCommitsFirst checks the documents log's ordering contract on a
// durable repository: each document is written once, however many batches
// name it, and a batch whose documents cannot be written fails before any of
// its rows is logged or applied.
func TestDocsLogCommitsFirst(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "visits.wal")
	repo, err := NewDurableVisitsRepo(SchemaReplicated, 100, 4, 2, kvstore.DefaultStoreOptions(), walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Table().Close()
	poi := model.POI{ID: 4, Name: "agora", Keywords: []string{"market"}}
	for i := 0; i < 3; i++ {
		if err := repo.StoreBatch([]model.Visit{{UserID: 1, Time: int64(i), POI: poi}, {UserID: 2, Time: int64(i), POI: poi}}); err != nil {
			t.Fatal(err)
		}
	}
	records := 0
	if err := kvstore.ReplayWAL(docsLogPath(walPath), func(kvstore.Cell) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	if records != 1 {
		t.Errorf("the documents log holds %d records of one document", records)
	}

	// A directory where the log must be rewritten: the next new document
	// cannot be written, so its batch must not reach the table.
	if err := os.Rename(docsLogPath(walPath), filepath.Join(dir, "moved")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(docsLogPath(walPath), 0o755); err != nil {
		t.Fatal(err)
	}
	fresh := model.POI{ID: 5, Name: "stoa"}
	if err := repo.StoreBatch([]model.Visit{{UserID: 3, Time: 9, POI: poi}, {UserID: 3, Time: 10, POI: fresh}}); err == nil {
		t.Fatal("a batch whose document could not be written was stored")
	}
	if n := countVisits(t, repo); n != 6 {
		t.Errorf("%d visits after the failed batch, want the 6 stored before it", n)
	}
}
