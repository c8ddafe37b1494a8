package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"modissense/internal/core"
)

// boundFlags builds the server's flag set the way main does.
func boundFlags() (*flag.FlagSet, *core.Config) {
	cfg := core.DefaultConfig()
	fs := flag.NewFlagSet("modissense-server", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindFlags(fs, &cfg)
	return fs, &cfg
}

// TestFlagsMatchOperationsKnobs holds the flag set and OPERATIONS.md's knob
// tables (every row that opens with a flag name) in bijection: a flag
// without a row, a row without a flag and a flag with two rows all fail.
func TestFlagsMatchOperationsKnobs(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)").FindAllSubmatch(doc, -1) {
		rows[string(m[1])]++
	}
	fs, _ := boundFlags()
	fs.VisitAll(func(f *flag.Flag) {
		if rows[f.Name] != 1 {
			t.Errorf("flag -%s has %d rows in OPERATIONS.md's knob tables, want 1", f.Name, rows[f.Name])
		}
		delete(rows, f.Name)
	})
	for name := range rows {
		t.Errorf("OPERATIONS.md documents -%s, which the server does not have", name)
	}
}

// TestFlagsBindTheConfig pins "one declaration per knob": binding changes
// nothing (a flag's default is the Config's value, not a second literal),
// and setting any flag but -addr changes the Config it was bound to.
func TestFlagsBindTheConfig(t *testing.T) {
	fs, cfg := boundFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := core.DefaultConfig(); !reflect.DeepEqual(*cfg, want) {
		t.Errorf("binding moved the configuration off its defaults:\n got %+v\nwant %+v", *cfg, want)
	}
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "addr" {
			return
		}
		value := "true" // the boolean flags
		if g, ok := f.Value.(flag.Getter); ok {
			switch g.Get().(type) {
			case int, int64, float64:
				value = "7"
			case time.Duration:
				value = "7s"
			case string:
				value = "group" // valid for -wal-sync; any text for the others
			}
		}
		before := *cfg
		if err := fs.Set(f.Name, value); err != nil {
			t.Errorf("-%s=%s: %v", f.Name, value, err)
		} else if reflect.DeepEqual(*cfg, before) {
			t.Errorf("-%s=%s changed no Config field", f.Name, value)
		}
	})
}
