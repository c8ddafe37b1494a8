package modissense_test

import (
	"testing"

	"modissense"
)

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
