package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.quick.txt from this build")

// TestQuickFiguresGolden runs every experiment's -quick sweep in process and
// compares what it prints with the committed output. The experiments are
// deterministic (simulated time, seeded data), so any difference is a moved
// curve: a change meant to move one rewrites the files with -update and shows
// the diff; a change not meant to cannot move one silently. The shape tests in
// internal/bench say why a curve looks as it does; these say what it is.
func TestQuickFiguresGolden(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := e.run(&got, true); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", e.name+".quick.txt")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if diff := lineDiff(string(want), got.String()); diff != "" {
				t.Errorf("%s moved (go test ./cmd/modissense-bench -update rewrites it):\n%s", path, diff)
			}
		})
	}
}

// lineDiff lists the lines on which want and got differ, each as a -want /
// +got pair with its line number, or returns "" when they are equal.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
