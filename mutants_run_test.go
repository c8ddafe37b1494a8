//go:build mutants

package modissense_test

// The runner of the mutant catalogue (mutants_test.go):
//
//	go test -tags mutants -run TestMutants .   (make mutants)
//
// Each row that names tests is applied to a copy of the module, made
// without .git, .bench_build and the repository benchmark's bench/; the
// copy runs `go test -vet=off -count=1 -timeout <per-row> -run <tests>
// <pkg>`, no -race, and the file is restored. Vet is `make vet`'s job: a
// row asks only whether its tests fail. A row passes when every test it
// names fails. It fails the run when one of them passes, when its old text
// no longer matches or its edit does not build (a stale row), and when the
// run timed out before each named test had failed (a hung row). Rows run
// as many at a time as go test's -parallel allows (two on two CPUs), each
// in its own copy; one row reruns alone by its subtest name, e.g.
// -run 'TestMutants/44_'.

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mutantTimeout is go test's -timeout for a row that sets none: ample for
// the slowest named test (a 10 s long poll), far below the default.
const mutantTimeout = 2 * time.Minute

func TestMutants(t *testing.T) {
	// Rows run in parallel, as many at once as go test's -parallel allows,
	// each in a copy of the module no other row is editing: a row takes a
	// free copy, or makes one when none is free.
	copies := make(chan string, len(mutants))
	for i, m := range mutants {
		if m.run == "" {
			continue
		}
		t.Run(fmt.Sprintf("%02d_PR%d_%s", i, m.pr, path.Base(m.file)), func(st *testing.T) {
			st.Parallel()
			var root string
			select {
			case root = <-copies:
			default:
				root = t.TempDir()
				if err := copyModule(".", root); err != nil {
					st.Fatal(err)
				}
			}
			runMutant(st, root, m)
			copies <- root
		})
	}
}

// runMutant applies m in the copy at root, runs its tests, fails t unless
// each named test failed, and restores the file.
func runMutant(t *testing.T, root string, m mutant) {
	file := filepath.Join(root, filepath.FromSlash(m.file))
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		t.Errorf("stale: %v: the old text occurs %d times, want once", m, n)
		return
	}
	if err := os.WriteFile(file, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.WriteFile(file, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	timeout := m.timeout
	if timeout == 0 {
		timeout = mutantTimeout
	}
	run := "^(" + m.run + ")$"
	if name, sub, ok := strings.Cut(m.run, "/"); ok {
		run = "^" + name + "$/^" + sub + "$"
	}
	began := time.Now()
	count := max(m.count, 1)
	cmd := exec.Command("go", "test", "-vet=off", "-count="+strconv.Itoa(count), "-timeout", timeout.String(), "-run", run, m.pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	took := time.Since(began).Round(100 * time.Millisecond)
	if err == nil {
		t.Errorf("survived: %v: %s passed under the edit (%v)", m, m.run, took)
		return
	}
	// A named test failed if a FAIL line names it before any timeout
	// panic.
	text, _, hung := strings.Cut(string(out), "panic: test timed out")
	var failed, missed []string
	for _, name := range strings.Split(m.run, "|") {
		name, _, _ = strings.Cut(name, "/")
		if strings.Contains(text, "--- FAIL: "+name+" ") || strings.Contains(text, "--- FAIL: "+name+"/") {
			failed = append(failed, name)
		} else {
			missed = append(missed, name)
		}
	}
	if len(missed) == 0 {
		t.Logf("caught: %v: %s failed (%v)", m, strings.Join(failed, ", "), took)
		return
	}
	verdict := "stale: no named test failed (the edit does not build, or the test binary died)"
	switch {
	case hung:
		verdict = "hung: " + strings.Join(missed, ", ") + " did not fail before the timeout"
	case len(failed) > 0:
		verdict = "caught in part: " + strings.Join(missed, ", ") + " did not fail"
	}
	t.Errorf("%s: %v (%v):\n%s", verdict, m, took, tail(string(out), 40))
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// copyModule copies the module at src to dst, leaving out version control,
// build output and the repository benchmark's own module.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch rel {
			case ".git", ".bench_build", "bench":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, info.Mode().Perm())
	})
}
