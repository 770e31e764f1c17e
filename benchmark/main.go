// Command benchmark is the repository's wall-clock benchmark: six
// workloads, each measured end to end and layer by layer from outside
// the packages under test.  See README.md beside this file.
//
//	benchmark -workload NAME -seed N [-seconds S] [-trace 0|1]
//	benchmark -selfcheck [-seed N] [-ledger FILE]
//	benchmark -compare A.json B.json
//	benchmark -spec benchmark|interactions
//
// A workload run prints every metric by name with its unit, then —
// as the last line of standard output — one JSON object with the keys
// correct, attempted, failed and metrics.  It exits non-zero when any
// correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == idleFlag {
		idleLoop()
		return 0
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed the frame pool is drawn from")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per run (5 rounds share them)")
	traceOn := fs.Int("trace", 0, "1: harness spans on, report per-layer metrics; 0: end-to-end metrics")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice on this code (A/A) and hold the difference to each metric's bound")
	ledger := fs.String("ledger", "", "with -selfcheck: write the first set of runs to this ledger file")
	compare := fs.Bool("compare", false, "print per-row deltas between two ledger files given as arguments")
	spec := fs.String("spec", "", "print a generated file: benchmark (BENCHMARK.json) or interactions (interactions.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *spec == "benchmark":
		stdout.Write(marshalSpec(buildSpec()))
		return 0
	case *spec == "interactions":
		stdout.Write(marshalSpec(buildInteractions()))
		return 0
	case *spec != "":
		fmt.Fprintf(stderr, "benchmark: -spec %q: want benchmark or interactions\n", *spec)
		return 2
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two ledger files")
			return 2
		}
		return compareLedgers(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *selfcheck:
		return selfCheck(*seed, *seconds, *ledger, stdout, stderr)
	case *workload == "":
		fmt.Fprintln(stderr, "benchmark: -workload is required (or -selfcheck, -compare, -spec)")
		fs.Usage()
		return 2
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn != 0,
		outDir: "benchmark/out", minSetups: 5, setupFor: 300 * time.Millisecond, simExact: 20000}
	stopIdlers := startIdlers(stderr)
	out, err := runOne(cfg)
	stopIdlers()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printOutcome(stdout, out)
	line, err := json.Marshal(resultOf(out))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.tally.failed != 0 {
		return 1
	}
	return 0
}

// result is the run's last line of output, the contract with whoever
// drives the benchmark.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultOf(out *outcome) result {
	res := result{Correct: out.tally.failed == 0, Attempted: out.tally.attempted,
		Failed: out.tally.failed, Metrics: make(map[string]metricValue)}
	for _, d := range reported(out.cfg.trace) {
		res.Metrics[d.Name] = metricValue{out.values[d.Name], d.Unit}
	}
	return res
}

// reported lists the metrics a run reports: the per-layer ones when
// harness spans are on, the end-to-end ones when they are off.
func reported(trace bool) []specLayer {
	if trace {
		return buildSpec().PerLayer
	}
	var list []specLayer
	for _, d := range endToEnd {
		list = append(list, specLayer{d.Name, d.Unit, d.Better})
	}
	return list
}

// printOutcome prints every metric by name with its unit: end-to-end
// metrics with the quartiles of their five rounds, per-layer metrics
// grouped by layer.
func printOutcome(w io.Writer, out *outcome) {
	cfg := out.cfg
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if cfg.trace {
		layer := ""
		for _, d := range perLayer {
			if d.Layer != layer {
				layer = d.Layer
				fmt.Fprintf(w, "[%s]\n", layer)
			}
			note := ""
			switch {
			case !d.on(cfg.workload):
				note = "  (layer bypassed)"
			case d.Exact:
				note = "  (exact)"
			}
			fmt.Fprintf(w, "  %-34s %16.6g %-6s%s\n", d.Name, out.values[d.Name], d.Unit, note)
		}
		if v := out.values["rtt.budget_residual_pct"]; v > 15 {
			fmt.Fprintf(w, "BUDGET DOES NOT ADD UP: rtt.budget_residual_pct %.1f%% > 15%%\n", v)
		}
		if v := out.values["demux.budget_residual_pct"]; v > 15 || v < -15 {
			fmt.Fprintf(w, "BUDGET DOES NOT ADD UP: demux.budget_residual_pct %.1f%% outside +-15%%\n", v)
		}
		if v := out.values["bench.window_full_share"]; v != 0 && v <= 0.5 {
			fmt.Fprintf(w, "NOT SERVER-BOUND: bench.window_full_share %.2f <= 0.5\n", v)
		}
		fmt.Fprintf(w, "spans written to %s\n", out.spans)
	} else {
		for _, d := range endToEnd {
			q := out.spread[d.Name]
			note := ""
			if n, ok := out.samples[d.Name]; ok {
				note = fmt.Sprintf("  n=%d", n)
			}
			fmt.Fprintf(w, "  %-22s %16.6g %-6s %s.iqr [%.6g, %.6g]%s\n",
				d.Name, out.values[d.Name], d.Unit, d.Name, q[0], q[1], note)
		}
	}
	t := out.tally
	fmt.Fprintf(w, "  %-22s %16.6g %-6s (%d failed of %d attempted)\n", "fail_share",
		ratio(float64(t.failed), float64(t.attempted)), "ratio", t.failed, t.attempted)
	for _, n := range t.notes {
		fmt.Fprintf(w, "FAIL: %s\n", n)
	}
}
