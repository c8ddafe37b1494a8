package core

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode"

	"modissense/internal/obs"
	"modissense/internal/wire"
)

// Every family /metrics serves must have a reader: a runbook line in
// OPERATIONS.md, or a benchmark that reads it (BENCHMARK.json, bench/*.go).
// The names are matched as whole words, so a "`_probes_total`" shorthand
// does not count. There is no allowlist: a family worth keeping gets a
// runbook line, and one nothing reads is deleted.
var metricReaderFiles = []string{"../../OPERATIONS.md", "../../BENCHMARK.json", "../../bench/*.go"}

// readerWords returns every identifier-like word in the reader files.
func readerWords(t *testing.T) map[string]bool {
	t.Helper()
	words := map[string]bool{}
	for _, pattern := range metricReaderFiles {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("reader files %s: none found (%v)", pattern, err)
		}
		for _, path := range paths {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range strings.FieldsFunc(string(raw), func(r rune) bool {
				return r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r)
			}) {
				words[w] = true
			}
		}
	}
	return words
}

// unreadFamilies returns, sorted, the families in a Prometheus exposition
// (its "# TYPE <name>" lines) whose full name is not among words.
func unreadFamilies(exposition string, words map[string]bool) []string {
	var unread []string
	for _, line := range strings.Split(exposition, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "#" && fields[1] == "TYPE" && !words[fields[2]] {
			unread = append(unread, fields[2])
		}
	}
	sort.Strings(unread)
	return unread
}

// TestEveryMetricFamilyHasAReader scrapes /metrics after one search — the
// registry is the exact list served, per-route families included — and
// fails on any family no runbook line or benchmark names.
func TestEveryMetricFamilyHasAReader(t *testing.T) {
	words := readerWords(t)

	t.Run("served", func(t *testing.T) {
		c, _ := newAPIClient(t)
		in := c.signIn("facebook", "facebook:1")
		if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{1}}, nil); code != http.StatusOK {
			t.Fatalf("search status %d", code)
		}
		body := scrapeMetrics(t, c)
		n := strings.Count(body, "# TYPE ")
		if n < 50 {
			t.Fatalf("/metrics serves %d families; the scrape is not the platform's registry", n)
		}
		t.Logf("%d families served", n)
		if unread := unreadFamilies(body, words); len(unread) > 0 {
			t.Errorf("%d families on /metrics are named nowhere in %v; give each a runbook line in OPERATIONS.md or delete it:\n  %s",
				len(unread), metricReaderFiles, strings.Join(unread, "\n  "))
		}
	})

	t.Run("seeded", func(t *testing.T) {
		r := obs.NewRegistry()
		r.Counter("kvstore_rows_scanned_total", "A family the benchmark reads.")
		r.Gauge("seeded_unread_bytes", "A family no reader names.")
		r.Histogram("seeded_unread_seconds", "A histogram no reader names.", obs.LatencyBuckets())
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		got := unreadFamilies(buf.String(), words)
		if want := []string{"seeded_unread_bytes", "seeded_unread_seconds"}; strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("unreadFamilies = %v, want %v", got, want)
		}
	})
}
