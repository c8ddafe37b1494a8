package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the benchmark's test of itself: every workload runs 2×N times on
// the same code, each run a fresh process with its own seed, alternating
// between set A and set B. For every end-to-end metric it prints each set's
// median and spread (interquartile distance over median), the spread of all
// 2×N values together, the distance between the two medians, and the bound. A benchmark whose two medians of
// the same code differ by more than a bound, or whose spread exceeds it,
// cannot tell a regression of that size from noise, so either fails the run.
func runAA(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	bad := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*o.aa; i++ {
			seed := o.seed + int64(i)
			args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-out", o.outDir}
			if o.short {
				args = append(args, "-short")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d operations failed", name, seed, res.Failed)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d (set %c):", name, seed, 'A'+i%2)
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				sets[i%2][d.name] = append(sets[i%2][d.name], v)
				fmt.Fprintf(os.Stderr, " %s=%.4g", d.name, v)
			}
			fmt.Fprintln(os.Stderr)
		}
		fmt.Printf("%s: %d runs per set\n", name, o.aa)
		fmt.Printf("  %-12s %12s %12s %9s %9s %9s %9s %7s\n", "metric", "median A", "median B", "spread A", "spread B", "spread AB", "distance", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			dist := math.Abs(mb-ma) / ma
			sa, sb, sab := spread(a), spread(b), spread(append(append([]float64(nil), a...), b...))
			verdict := ""
			// The spread of setup_s is reported but not held to its bound:
			// set-up is seconds of highly parallel work, the least
			// repeatable thing a run does.
			if dist > d.bound || (d.name != "setup_s" && math.Max(sab, math.Max(sa, sb)) > d.bound) {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("  %-12s %12.4f %12.4f %8.2f%% %8.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				d.name, ma, mb, 100*sa, 100*sb, 100*sab, 100*dist, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics exceed their bound on identical code", bad)
	}
	return nil
}
