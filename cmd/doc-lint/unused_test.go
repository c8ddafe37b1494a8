package main

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestCheckUnusedFixture runs the unused-identifier check over a module
// holding one case of each kind: a caller-less function and one called only
// from a _test.go file are flagged, an interface implementation reached only
// through the interface, a generic function called through instantiations
// and a generic type's method called on an instantiation are not, an allowlisted name is not, and an allowlist
// entry naming nothing or naming an identifier with a production caller is.
func TestCheckUnusedFixture(t *testing.T) {
	rep, err := checkUnused(filepath.Join("testdata", "mod"), map[string]string{
		"lib.Seam":      "test seam",
		"lib.NewSquare": "kept after main started calling it",
		"lib.Gone":      "deleted long ago",
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range rep.violations {
		got = append(got, v.msg)
	}
	sort.Strings(got)
	want := []string{
		"allowlist entry lib.Gone names no exported identifier of an internal package",
		"allowlisted function lib.NewSquare has a production caller; drop its allowlist entry",
		"exported function lib.TestOnly has no caller outside tests",
		"exported function lib.Unused has no caller outside tests",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
	// Unused, TestOnly, Shape, Shape.Area, Square, Square.Area, NewSquare,
	// Max, Box, Box.Get, Seam; Seam is the one allowlisted.
	if rep.audited != 11 || rep.allowed != 1 {
		t.Errorf("audited %d, allowed %d; want 11 and 1", rep.audited, rep.allowed)
	}
}
