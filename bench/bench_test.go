package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (nearest rank)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestNormalisation(t *testing.T) {
	// Two passes averaging 12 ms around a block mean the host ran slow by a
	// factor of 1.2² (see refSensitivity): a 7.2 ms latency counts as 5 ms,
	// and 100 ops in 1.44 s count as 100 ops/s.
	f := speedFactor(11, 13)
	if math.Abs(f-1.44) > 1e-12 {
		t.Fatalf("speedFactor(11, 13) = %v, want 1.44", f)
	}
	if got := 7.2 / f; math.Abs(got-5) > 1e-12 {
		t.Errorf("normalised latency = %v, want 5", got)
	}
	if got := 100 / (1.44 / f); math.Abs(got-100) > 1e-9 {
		t.Errorf("normalised throughput = %v, want 100", got)
	}
	if f := speedFactor(10, 10); f != 1 {
		t.Errorf("speedFactor at the nominal pass time = %v, want 1", f)
	}
	// Set-up is divided by the factor of the median of its five passes.
	s := setupTimes{total: 4.5, refMs: [5]float64{15, 9, 15, 40, 15}}
	if got := s.normalisedTotal(); math.Abs(got-2) > 1e-12 {
		t.Errorf("set-up of 4.5 s at a median pass of 15 ms = %v s, want 2", got)
	}
}

func TestSelfTimesFromDepthMeans(t *testing.T) {
	self, ok := selfTimes([traceDepths]float64{10, 7, 4.5, 1}, [traceDepths]int{5, 5, 5, 5})
	if !ok {
		t.Fatal("selfTimes reported a missing depth")
	}
	want := [traceDepths]float64{3, 2.5, 3.5, 1}
	sum := 0.0
	for d := range want {
		if self[d] != want[d] {
			t.Errorf("self[%d] = %v, want %v", d, self[d], want[d])
		}
		sum += self[d]
	}
	if sum != 10 {
		t.Errorf("self times sum to %v, want the root mean 10", sum)
	}
	if _, ok := selfTimes([traceDepths]float64{10, 7, 0, 1}, [traceDepths]int{5, 5, 0, 5}); ok {
		t.Error("selfTimes accepted a depth no op entered at")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		list := func(seed int64) uint64 {
			warmup, measured := w.opCounts(shortSizing, defaultSeconds, false)
			return hashOps(w.gen(newGenerator(shortSizing, seed, streamOps), warmup+measured))
		}
		if a, b := list(7), list(7); a != b {
			t.Errorf("%s: seed 7 gave op lists %x and %x", w.name, a, b)
		}
		if a, b := list(7), list(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same op list %x", w.name, a)
		}
	}
}

func TestOpCounts(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		_, full := w.opCounts(fullSizing, defaultSeconds, false)
		_, traced := w.opCounts(fullSizing, defaultSeconds, true)
		if full%measuredBlocks != 0 || traced%measuredBlocks != 0 {
			t.Errorf("%s: %d and %d ops do not divide into %d equal blocks", w.name, full, traced, measuredBlocks)
		}
		if traced > full/2 || traced < full/2-measuredBlocks {
			t.Errorf("%s: the traced run has %d ops, the untraced %d; want half", w.name, traced, full)
		}
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the op counts were sized for %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d measured", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: declared %+v, measured %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d measured", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: declared %+v, measured %+v", i, got, d)
		}
	}
}

// TestSmoke drives all four workloads, untraced and traced, at 1/100 of the
// op count on a small platform with every read answer verified, and checks
// that the result line carries exactly the declared metric names and that
// nothing failed.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	declared := [2]map[string]bool{{}, {}}
	for _, d := range b.EndToEnd {
		declared[0][d.Name] = true
	}
	for _, d := range b.PerLayer {
		declared[1][d.Name] = true
	}
	for _, w := range b.Workloads {
		for trace := 0; trace <= 1; trace++ {
			var out bytes.Buffer
			o := options{workload: w.Name, seed: 3, seconds: defaultSeconds, trace: trace, short: true, outDir: t.TempDir()}
			if err := runOne(o, &out); err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s trace %d: result line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			for name := range res.Metrics {
				if !declared[trace][name] {
					t.Errorf("%s trace %d: printed undeclared metric %s", w.Name, trace, name)
				}
			}
			for name := range declared[trace] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace %d: declared metric %s was not printed", w.Name, trace, name)
				}
			}
		}
	}
}
