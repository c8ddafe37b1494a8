package modissense_test

import (
	"testing"

	"modissense"
)

// TestClassifierOptionConstructors checks the exported pipeline presets.
func TestClassifierOptionConstructors(t *testing.T) {
	base := modissense.BaselineClassifierOptions()
	opt := modissense.OptimizedClassifierOptions()
	if base.Bigrams || base.BNS || base.TermFrequency {
		t.Errorf("baseline must not enable optimizations: %+v", base)
	}
	if !opt.Bigrams || !opt.BNS || !opt.TermFrequency || opt.MinOccurrences < 2 {
		t.Errorf("optimized must enable every optimization: %+v", opt)
	}
}

// TestSchemaConstantsExported checks the ablation schema selectors.
func TestSchemaConstantsExported(t *testing.T) {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 50
	cfg.NetworkPopulation = 100
	cfg.MeanFriends = 5
	cfg.ClassifierTrainDocs = 200
	cfg.VisitSchema = modissense.SchemaNormalized
	p, err := modissense.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Visits.Schema() != modissense.SchemaNormalized {
		t.Error("schema constant did not propagate")
	}
}
