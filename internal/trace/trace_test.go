package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zero: count=%d", h.Count())
	}
	samples := []time.Duration{
		500 * time.Nanosecond, // bucket 0
		time.Microsecond,
		3 * time.Microsecond,
		700 * time.Microsecond,
		2 * time.Millisecond,
		9 * time.Millisecond,
	}
	var sum time.Duration
	for _, d := range samples {
		h.Observe(d)
		sum += d
	}
	if h.Count() != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(samples))
	}
	if h.Min() != 500*time.Nanosecond || h.Max() != 9*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != sum/time.Duration(len(samples)) {
		t.Fatalf("mean = %v", h.Mean())
	}
	// Quantiles must be monotone, bounded by [min, max], and each
	// quantile must be an upper bound for at least ceil(q*n) samples.
	qs := []float64{0.1, 0.5, 0.9, 0.99, 1}
	var prev time.Duration
	for _, q := range qs {
		v := h.Quantile(q)
		if v < h.Min() || v > h.Max() {
			t.Fatalf("Quantile(%v) = %v outside [min,max]", q, v)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
		rank := int(q * float64(len(samples)))
		if rank < 1 {
			rank = 1
		}
		covered := 0
		for _, d := range samples {
			if d <= v {
				covered++
			}
		}
		if covered < rank {
			t.Fatalf("Quantile(%v) = %v covers %d samples, want >= %d", q, v, covered, rank)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("Quantile(1) = %v, want max %v", h.Quantile(1), h.Max())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := &Histogram{}
	h.Observe(42 * time.Millisecond)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, want 42ms", q, got)
		}
	}
}

func TestResetHostKeepsPointers(t *testing.T) {
	tr := New()
	c := tr.Counter("A", "pf.packets")
	g := tr.Gauge("A", "depth")
	h := tr.Histogram("A", "lat")
	c.Add(5)
	g.Set(3)
	h.Observe(time.Millisecond)
	tr.KernelTime("A", "pf", time.Second)
	tr.Counter("B", "pf.packets").Add(7)

	tr.ResetHost("A")

	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Fatalf("reset did not zero A metrics: c=%d g=%d/%d h=%d",
			c.Value(), g.Value(), g.Max(), h.Count())
	}
	// The cached pointers must still be the live registry entries.
	c.Add(2)
	if tr.Counter("A", "pf.packets") != c || c.Value() != 2 {
		t.Fatal("cached counter pointer detached from registry after reset")
	}
	if got := tr.Snapshot().CounterValue("B", "pf.packets"); got != 7 {
		t.Fatalf("reset of A touched B: %d", got)
	}
	for _, hp := range tr.Snapshot().Profiles {
		if hp.Host == "A" && hp.KernelTotal != 0 {
			t.Fatalf("reset did not clear A profile: %v", hp.KernelTotal)
		}
	}
}

func TestNilSinkMetricsOnly(t *testing.T) {
	tr := New()
	tr.CtxSwitch(0, "A", "p", 400*time.Microsecond)
	tr.FilterEval(0, "A", 1, 8, true)
	tr.Deliver(0, "A", 1, time.Millisecond)
	s := tr.Snapshot()
	if s.CounterValue("A", "sched.ctxswitch") != 1 ||
		s.CounterValue("A", "pf.evals") != 1 ||
		s.CounterValue("A", "pf.instrs") != 8 ||
		s.CounterValue("A", "pf.matched") != 1 ||
		s.CounterValue("A", "pf.delivered") != 1 {
		t.Fatalf("counters wrong without sink: %+v", s.Counters)
	}

	rec := &Recorder{}
	tr.SetSink(rec)
	tr.FilterEval(5*time.Millisecond, "A", 2, 4, false)
	if len(rec.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(rec.Events))
	}
	want := Event{When: 5 * time.Millisecond, Kind: KindFilterEval, Host: "A", Port: 2, Value: 4}
	if rec.Events[0] != want {
		t.Fatalf("event = %+v, want %+v", rec.Events[0], want)
	}
}

func TestSnapshotPF(t *testing.T) {
	tr := New()
	// 100 packets: 250 predicate evaluations, 1000 instruction words.
	for i := 0; i < 100; i++ {
		tr.PacketIn(0, "B")
	}
	tr.Counter("B", "pf.evals").Add(250)
	tr.Counter("B", "pf.instrs").Add(1000)
	tr.KernelTime("B", "pf", 60*time.Millisecond)
	tr.KernelTime("B", "filter", 40*time.Millisecond)
	tr.KernelTime("B", "driver", 30*time.Millisecond)

	s := tr.Snapshot()
	pf, ok := s.PF("B")
	if !ok {
		t.Fatal("PF profile missing")
	}
	if pf.Packets != 100 {
		t.Fatalf("packets = %d", pf.Packets)
	}
	if pf.PerPacket != time.Millisecond {
		t.Fatalf("per-packet = %v, want 1ms", pf.PerPacket)
	}
	if pf.FilterFraction != 0.4 {
		t.Fatalf("filter fraction = %v, want 0.4", pf.FilterFraction)
	}
	if pf.AvgPredicates != 2.5 || pf.AvgInstrs != 10 {
		t.Fatalf("avg predicates/instrs = %v/%v", pf.AvgPredicates, pf.AvgInstrs)
	}
	if _, ok := s.PF("nosuch"); ok {
		t.Fatal("PF reported profile for unknown host")
	}

	// Kernel categories sorted by descending time.
	var hp *HostProfile
	for i := range s.Profiles {
		if s.Profiles[i].Host == "B" {
			hp = &s.Profiles[i]
		}
	}
	if hp == nil || len(hp.Kernel) != 3 {
		t.Fatalf("profile = %+v", hp)
	}
	if hp.Kernel[0].Tag != "pf" || hp.Kernel[1].Tag != "filter" || hp.Kernel[2].Tag != "driver" {
		t.Fatalf("kernel order = %v %v %v", hp.Kernel[0].Tag, hp.Kernel[1].Tag, hp.Kernel[2].Tag)
	}
}

func TestSnapshotExports(t *testing.T) {
	tr := New()
	tr.Deliver(time.Millisecond, "A", 1, 700*time.Microsecond)
	tr.Gauge("A", "pf.port1.depth").Set(4)
	tr.KernelTime("A", "pf", 10*time.Millisecond)
	tr.UserTime("A", 2*time.Millisecond)
	s := tr.Snapshot()

	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.CounterValue("A", "pf.delivered") != 1 {
		t.Fatal("round-tripped snapshot lost counters")
	}

	text := s.Text()
	for _, want := range []string{"counters", "gauges", "latency histograms",
		"kernel profile, host A", "pf.delivery_latency", "pf.port1.depth"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Text() missing %q:\n%s", want, text)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New()
	rec := &Recorder{}
	tr.SetSink(rec)
	now := time.Duration(0)
	tr.CtxSwitch(now, "A", "reader", 400*time.Microsecond)
	tr.SyscallEnter(now, "A", "reader", "pfread")
	tr.KernelSlice(now, "A", "pf", "reader", 550*time.Microsecond)
	tr.SyscallExit(now+time.Millisecond, "A", "reader", "pfread")
	tr.UserSlice(now+time.Millisecond, "A", "reader", 200*time.Microsecond)
	tr.Copy(now, "A", "reader", "read", 128)
	tr.Wakeup(now, "A")
	tr.FilterEval(now, "A", 3, 12, true)
	tr.Enqueue(now, "A", 3, 1)
	tr.Dequeue(now, "A", 3, 0, 1)
	tr.Drop(now, "A", "queue")
	tr.Deliver(now, "A", 3, time.Millisecond)
	tr.WireTx(now, "B", 576, 460*time.Microsecond)
	tr.WireRx(now, "A", 576)
	tr.Proto(now, "A", "ip_in")

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec.Events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// Every non-metadata event needs a phase; B/E must balance per tid.
	begins := map[int]int{}
	procs := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "":
			t.Fatalf("event %q missing phase", e.Name)
		case "B":
			begins[e.Tid]++
		case "E":
			begins[e.Tid]--
			if begins[e.Tid] < 0 {
				t.Fatalf("unbalanced E on tid %d", e.Tid)
			}
		case "M":
			if e.Name == "process_name" {
				procs++
			}
		}
	}
	for tid, n := range begins {
		if n != 0 {
			t.Fatalf("tid %d has %d unmatched B events", tid, n)
		}
	}
	if procs != 2 {
		t.Fatalf("got %d process_name records, want 2 (hosts A and B)", procs)
	}
}

func TestKindString(t *testing.T) {
	if KindFilterEval.String() != "filter_eval" || KindWireTx.String() != "wire_tx" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind")
	}
}

// The per-packet entry points resolve their metrics through the
// last-host handle cache; the registry they leave behind — which keys
// exist and what each holds — must be exactly what per-call lookups
// would leave, across host switches and ResetHost.
func TestHotHandlesMatchRegistryLookups(t *testing.T) {
	hot, ref := New(), New()
	hosts := []string{"A", "A", "B", "A", "C", "C", "B"}
	for i, host := range hosts {
		accept := i%3 == 0
		hot.PacketIn(0, host)
		hot.FilterEval(0, host, 1, i+2, accept)
		ref.Counter(host, "pf.packets").Add(1)
		ref.Counter(host, "pf.evals").Add(1)
		ref.Counter(host, "pf.instrs").Add(uint64(i + 2))
		if accept {
			ref.Counter(host, "pf.matched").Add(1)
			hot.Enqueue(0, host, 1, 1)
			hot.Dequeue(0, host, 1, 0, 1)
			hot.Deliver(0, host, 1, time.Duration(i)*time.Microsecond)
			ref.Counter(host, "pf.enqueued").Add(1)
			ref.Counter(host, "pf.dequeued").Add(1)
			ref.Counter(host, "pf.delivered").Add(1)
			ref.Histogram(host, "pf.delivery_latency").Observe(time.Duration(i) * time.Microsecond)
		}
		if i == 3 {
			hot.ResetHost("A")
			ref.ResetHost("A")
		}
	}
	if len(hot.reg.counters) != len(ref.reg.counters) || len(hot.reg.histograms) != len(ref.reg.histograms) {
		t.Fatalf("registry holds %d counters / %d histograms, lookups make %d / %d",
			len(hot.reg.counters), len(hot.reg.histograms), len(ref.reg.counters), len(ref.reg.histograms))
	}
	for k, c := range ref.reg.counters {
		if got, ok := hot.reg.counters[k]; !ok || got.v != c.v {
			t.Errorf("counter %v: got %v, want %d", k, got, c.v)
		}
	}
	for k, h := range ref.reg.histograms {
		if got, ok := hot.reg.histograms[k]; !ok || *got != *h {
			t.Errorf("histogram %v differs", k)
		}
	}
}
