package main

// The ledger: one machine-readable file per set of runs, with the
// environment it was measured in; -selfcheck (A/A on the same code)
// and -compare (per-row deltas between two ledgers) read and write it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type ledgerEnv struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	When       string `json:"when"`
}

type ledgerRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Kind     string  `json:"kind"` // end_to_end or per_layer
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
}

type ledgerFile struct {
	Env     ledgerEnv   `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Rows    []ledgerRow `json:"rows"`
}

func currentEnv() ledgerEnv {
	env := ledgerEnv{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", When: time.Now().UTC().Format(time.RFC3339)}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	// Best effort: a driver's checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			env.Commit += "+worktree"
		}
	}
	return env
}

// runChild runs one workload in a fresh process — the conditions the
// driver measures under — and parses the result line.
func runChild(workload string, seed int64, seconds float64, trace int, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): no result line: %v (exit: %v)", workload, trace, err, runErr)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s (trace %d): %d of %d operations failed:\n%s", workload, trace, res.Failed, res.Attempted, out)
	}
	return res, nil
}

func rowKey(r ledgerRow) string { return r.Workload + "\x00" + r.Metric }

// selfcheckRuns is how many untraced runs each side of the A/A test
// makes of a workload; the sides are compared by their medians, as the
// driver compares two sets of runs.
const selfcheckRuns = 3

// selfCheck is the A/A test: every workload measured twice on the same
// code, the two sides' runs alternating so that a slow drift of the
// machine falls on both.  Every end-to-end metric must agree within
// its own bound, and every exact count must agree to the bit.
func selfCheck(seed int64, seconds float64, ledgerPath string, stdout, stderr io.Writer) int {
	var a, b []ledgerRow
	for _, w := range workloads {
		for trace, kind := range []string{"end_to_end", "per_layer"} {
			runs := selfcheckRuns
			if trace == 1 {
				runs = 1
			}
			sides := [2]map[string][]float64{{}, {}}
			for r := 0; r < runs; r++ {
				for side, label := range []string{"A", "B"} {
					fmt.Fprintf(stdout, "# %s: %s (%s) run %d of %d\n", label, w.Name, kind, r+1, runs)
					res, err := runChild(w.Name, seed, seconds, trace, stderr)
					if err != nil {
						fmt.Fprintf(stderr, "benchmark: selfcheck: %v\n", err)
						return 1
					}
					for name, m := range res.Metrics {
						sides[side][name] = append(sides[side][name], m.Value)
					}
				}
			}
			for _, d := range reported(trace == 1) {
				a = append(a, ledgerRow{w.Name, d.Name, kind, d.Unit, median(sides[0][d.Name])})
				b = append(b, ledgerRow{w.Name, d.Name, kind, d.Unit, median(sides[1][d.Name])})
			}
		}
	}
	if ledgerPath != "" {
		file := ledgerFile{Env: currentEnv(), Seed: seed, Seconds: seconds, Rows: a}
		if err := os.WriteFile(ledgerPath, marshalSpec(file), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: selfcheck: %v\n", err)
			return 1
		}
	}
	second := make(map[string]float64, len(b))
	for _, r := range b {
		second[rowKey(r)] = r.Value
	}
	bounds := make(map[string]float64)
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	exact := make(map[string]bool)
	for _, d := range perLayer {
		exact[d.Name] = d.Exact
	}

	bad := 0
	fmt.Fprintf(stdout, "\n%-13s %-30s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, r := range a {
		vb := second[rowKey(r)]
		switch {
		case r.Kind == "end_to_end":
			diff := math.Abs(ratio(vb-r.Value, r.Value))
			verdict := "ok"
			if diff > bounds[r.Metric] {
				verdict = "EXCEEDS"
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-30s %14.6g %14.6g %8.2f%% %6.0f%% %s\n",
				r.Workload, r.Metric, r.Value, vb, 100*diff, 100*bounds[r.Metric], verdict)
		case exact[r.Metric]:
			verdict := "identical"
			if vb != r.Value {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-30s %14.6g %14.6g %9s %7s %s\n",
				r.Workload, r.Metric, r.Value, vb, "", "exact", verdict)
		}
	}
	if bad != 0 {
		fmt.Fprintf(stdout, "selfcheck: %d rows disagree between two runs of the same code\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: every end-to-end metric within its bound, every exact count identical")
	return 0
}

func readLedger(path string) (ledgerFile, error) {
	var f ledgerFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareLedgers prints per-row deltas, B against A.
func compareLedgers(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readLedger(pathA)
	if err == nil {
		var b ledgerFile
		if b, err = readLedger(pathB); err == nil {
			printCompare(stdout, a, b)
			return 0
		}
	}
	fmt.Fprintf(stderr, "benchmark: compare: %v\n", err)
	return 1
}

func printCompare(w io.Writer, a, b ledgerFile) {
	fmt.Fprintf(w, "A: %s %s nproc=%d commit=%s seed=%d\n", a.Env.Go, a.Env.Kernel, a.Env.NumCPU, a.Env.Commit, a.Seed)
	fmt.Fprintf(w, "B: %s %s nproc=%d commit=%s seed=%d\n", b.Env.Go, b.Env.Kernel, b.Env.NumCPU, b.Env.Commit, b.Seed)
	second := make(map[string]float64, len(b.Rows))
	for _, r := range b.Rows {
		second[rowKey(r)] = r.Value
	}
	fmt.Fprintf(w, "%-13s %-34s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "delta", "unit")
	for _, r := range a.Rows {
		vb, ok := second[rowKey(r)]
		if !ok {
			fmt.Fprintf(w, "%-13s %-34s %14.6g %14s\n", r.Workload, r.Metric, r.Value, "missing")
			continue
		}
		delta := "n/a"
		if r.Value != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(vb-r.Value)/r.Value)
		}
		fmt.Fprintf(w, "%-13s %-34s %14.6g %14.6g %9s  %s\n", r.Workload, r.Metric, r.Value, vb, delta, r.Unit)
	}
}
