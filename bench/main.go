// Command bench is the repository's benchmark: it boots one core.Platform
// with the modissense-server defaults, drives it through the typed client
// with one closed-loop client over an in-process transport, checks the
// answers against its own record of what was acknowledged, and prints every
// metric by name with its unit. See README.md.
//
//	bash bench/run.sh --workload search_scan --seed 1 --seconds 10 --trace 0
//	cd bench && go run . -workload mixed -seed 7
//	cd bench && go run . -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the length the op counts
// were sized for.
const defaultSeconds = 10

// setupRepeats is how many times a run sets the platform up; setup_s is the
// median, and the measured phase runs on the last.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	short    bool
	outDir   string
	aa       int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: search_scan, search_social, ingest or mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length the measured phase is sized for; the op count is the workload's frozen rate × this")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run (per-layer metrics), 0 the untraced run (end-to-end metrics)")
	flag.BoolVar(&o.short, "short", false, "1/100 of the ops on a small platform, every read answer verified (for tests)")
	flag.StringVar(&o.outDir, "out", "out", "directory for WALs and trace files; it must be inside the checkout")
	flag.IntVar(&o.aa, "aa", 0, "run every workload 2×N times and compare the two sets' medians against the bounds")
	flag.Parse()

	var err error
	switch {
	case o.aa > 0:
		err = runAA(o)
	case o.workload == "":
		err = fmt.Errorf("no -workload given")
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload once and writes its report to out, the result line
// last.
func runOne(o options, out io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	size := fullSizing
	if o.short {
		size = shortSizing
	}
	if o.trace != 0 {
		return runTraced(w, size, o, out)
	}
	return runUntraced(w, size, o, out)
}

// untracedSummary is what an untraced run leaves in the output directory for
// a later traced run of the same workload to compute its overhead against.
type untracedSummary struct {
	Seconds       int     `json:"seconds"`
	Short         bool    `json:"short"`
	PrimaryMeanMs float64 `json:"primary_mean_ms"`
}

func summaryPath(o options, w *workload) string {
	return filepath.Join(o.outDir, "untraced-"+w.name+".json")
}

func runUntraced(w *workload, size sizing, o options, out io.Writer) error {
	ref := newRefKernel()
	ref.pass() // the first pass pages the kernel's memory in

	repeats := setupRepeats
	if o.short {
		repeats = 1
	}
	var e *env
	var setups []float64
	for i := 0; i < repeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
			e = nil
			runtime.GC()
		}
		dir, err := newWALDir(o.outDir)
		if err != nil {
			return err
		}
		if e, err = setUp(w, size, o.seed, o.seconds, false, dir, ref); err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, e.setup.normalisedTotal())
	}
	defer e.close()

	ops := e.ops[e.warmup:]
	ph := runPhase(e, ref, ops, func(_ int, op *op) (result, time.Duration) {
		start := time.Now()
		res := e.do(op)
		return res, time.Since(start)
	}, false, nil)
	ph.verify(e, ops)
	v, counts := ph.endToEndValues(w, median(setups)), ph.countValues(e, w)
	if w.name == "ingest" {
		// Last: it replaces the platform the counts above were read from.
		if err := e.rebootCheck(); err != nil {
			ph.fail(err.Error())
		}
	}
	fmt.Fprintf(out, "workload %s  seed %d  ops %d (+%d warm-up)  op list %016x  one closed-loop client\n",
		w.name, o.seed, len(ops), e.warmup, hashOps(e.ops))
	fmt.Fprintf(out, "verified %d read answers against the oracle; fail_ratio %d/%d\n", len(ph.kept), ph.failed, ph.ops)
	printTable(out, "end-to-end (timings at nominal host speed):", endToEnd, v)
	printTable(out, "per-layer counts of this run (times need -trace 1):", perLayer, counts)

	summary, _ := json.Marshal(untracedSummary{Seconds: o.seconds, Short: o.short, PrimaryMeanMs: mean(ph.latMs[w.primary])})
	if err := os.WriteFile(summaryPath(o, w), summary, 0o644); err != nil {
		return err
	}
	return emit(out, endToEnd, v, ph.ops, ph.failed, ph.failed == 0)
}

func runTraced(w *workload, size sizing, o options, out io.Writer) error {
	ref := newRefKernel()
	ref.pass()
	dir, err := newWALDir(o.outDir)
	if err != nil {
		return err
	}
	e, err := setUp(w, size, o.seed, o.seconds, true, dir, ref)
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	ops := e.ops[e.warmup:]
	t, err := newTracer(e, dir, len(ops))
	if err != nil {
		return err
	}
	ph := runPhase(e, ref, ops, t.exec, true, func() counters { return t.share })
	if err := t.close(); err != nil {
		return err
	}
	ph.verify(e, ops)

	// The traced client mean is compared with the mean of the last untraced
	// run of this workload at the same size, when there was one.
	var untracedMean float64
	if raw, err := os.ReadFile(summaryPath(o, w)); err == nil {
		var s untracedSummary
		if json.Unmarshal(raw, &s) == nil && s.Seconds == o.seconds && s.Short == o.short {
			untracedMean = s.PrimaryMeanMs
		}
	}
	lt := t.table(ph)
	v := ph.countValues(e, w)
	for name, val := range lt.values(w, untracedMean) {
		v[name] = val
	}
	fmt.Fprintf(out, "workload %s  seed %d  traced  ops %d (+%d warm-up)  one closed-loop client\n", w.name, o.seed, len(ops), e.warmup)
	fmt.Fprintf(out, "verified %d read answers against the oracle; fail_ratio %d/%d\n", len(ph.kept), ph.failed, ph.ops)
	tableErr := lt.print(out)
	if tableErr != nil {
		ph.fail(tableErr.Error())
	}
	if untracedMean > 0 {
		fmt.Fprintf(out, "tracing overhead: traced client mean / untraced mean = %.4f\n", v["trace.overhead_ratio"])
	} else {
		fmt.Fprintln(out, "tracing overhead: no untraced run of this workload and size in the output directory to compare with")
	}
	printTable(out, "per-layer:", perLayer, v)
	tracePath := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := t.writeSpans(tracePath); err != nil {
		return err
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(t.spans), tracePath)
	return emit(out, perLayer, v, ph.ops, ph.failed, ph.failed == 0)
}
