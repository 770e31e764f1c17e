package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The test binary doubles as the idler when run() starts its children.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == idleFlag {
		idleLoop()
		return
	}
	os.Exit(m.Run())
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 100}, 5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		if !reflect.DeepEqual(in, c.in) && len(in) > 0 {
			t.Errorf("median reordered its input: %v -> %v", in, c.in)
		}
	}
}

// The expected quartiles are statistics.quantiles(v, n=4) from Python,
// the function the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{6}, 6, 6},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{5, 9}, 50); got != 5 {
		t.Errorf("percentile([5 9], 50) = %d, want 5", got)
	}
}

func TestSelfShare(t *testing.T) {
	rec := newRecorder()
	rec.beginPhase()
	root := rec.add("rtt", 0, 100, 0, 1)
	rec.add("a", 10, 30, root, 1)
	rec.add("b", 20, 50, root, 1)   // overlaps a
	rec.add("c", 90, 120, root, 1)  // reaches past the parent
	rec.add("d", 200, 300, root, 1) // wholly outside
	if got := rec.selfShare("rtt"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("self share = %v, want 0.5 (covered 10..50 and 90..100)", got)
	}
	if mean, n := rec.meanNS("b"); mean != 30 || n != 1 {
		t.Errorf("meanNS(b) = %v, %d", mean, n)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and interactions.json are generated from the
// catalogue; this fails when either drifts, and holds the catalogue to
// the limits the driver checks before it runs anything.
func TestSpecFilesMatchCatalogue(t *testing.T) {
	for _, f := range []struct {
		path string
		want []byte
		flag string
	}{
		{"../BENCHMARK.json", marshalSpec(buildSpec()), "benchmark"},
		{"interactions.json", marshalSpec(buildInteractions()), "interactions"},
	} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			t.Errorf("%s differs from the catalogue; regenerate it with `benchmark -spec %s`", f.path, f.flag)
		}
	}

	spec := buildSpec()
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == mSetup && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range perLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if len(m.On) == 0 {
			t.Errorf("%s is measured on no workload", m.Name)
		}
		for _, w := range m.On {
			if !seen[w] {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
		for _, e := range m.Moves {
			if !seen[e] {
				t.Errorf("%s: moves unknown metric %q", m.Name, e)
			}
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.25, trace: trace,
		outDir: t.TempDir(), minSetups: 1, simExact: 1500}
}

func metricNames(res result) []string {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A shrunken-round run of every workload in both modes: no operation
// fails, and the result carries exactly the catalogue's metric names.
func TestSmokeEveryWorkload(t *testing.T) {
	var wantE2E, wantLayer []string
	for _, d := range endToEnd {
		wantE2E = append(wantE2E, d.Name)
	}
	for _, d := range perLayer {
		wantLayer = append(wantLayer, d.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			out, err := runOne(smokeConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if out.tally.failed != 0 || out.tally.attempted == 0 {
				t.Errorf("%s trace=%v: %d failed of %d attempted: %v", w.Name, trace,
					out.tally.failed, out.tally.attempted, out.tally.notes)
			}
			res := resultOf(out)
			want := wantE2E
			if trace {
				want = wantLayer
			}
			if got := metricNames(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metric names\n got  %v\n want %v", w.Name, trace, got, want)
			}
			for n, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, n, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, n, m.Value)
				}
			}
			if !trace {
				continue
			}
			for _, d := range perLayer {
				if v := res.Metrics[d.Name].Value; !d.on(w.Name) && v != 0 {
					t.Errorf("%s: %s = %v on a workload that bypasses its layer", w.Name, d.Name, v)
				}
			}
			if v := res.Metrics["rtt.budget_residual_pct"].Value; v > 15 {
				t.Errorf("%s: rtt budget residual %v%% > 15%%", w.Name, v)
			}
			data, err := os.ReadFile(out.spans)
			if err != nil {
				t.Fatalf("%s: span file: %v", w.Name, err)
			}
			var file struct {
				Columns []string
				Spans   [][]any
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatalf("%s: span file does not parse: %v", w.Name, err)
			}
			if len(file.Spans) == 0 || len(file.Columns) != 6 {
				t.Errorf("%s: span file has %d spans, %d columns", w.Name, len(file.Spans), len(file.Columns))
			}
		}
	}
}

// A frame whose address disagrees with the harness's expectation must
// be counted as a failure, on every kind of workload.
func TestMisaddressedFrameIsCounted(t *testing.T) {
	for _, w := range []string{wDemuxLinear, wDemuxTable, wServeSmall, wSimReceive} {
		cfg := smokeConfig(t, w, false)
		cfg.misaddress = true
		out, err := runOne(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if out.tally.failed == 0 {
			t.Errorf("%s: a mis-addressed frame went uncounted (%d attempted)", w, out.tally.attempted)
		}
		if res := resultOf(out); res.Correct || res.Failed == 0 {
			t.Errorf("%s: result line says correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// The command line the driver uses, and the shape of the last line.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", wDemuxLinear, "--seed", "3", "--seconds", "0.2", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	for _, d := range endToEnd {
		if !strings.Contains(stdout.String(), d.Name) {
			t.Errorf("output does not print %s", d.Name)
		}
	}

	stdout.Reset()
	if code := run([]string{"--workload", "no-such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, printed %q", code, stdout.String())
	}
}
