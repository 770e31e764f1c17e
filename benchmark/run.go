package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// config is one run: one workload, one seed, one tracing mode.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured time across the rounds
	trace    bool
	outDir   string // where the traced run writes its span file

	// minSetups is the least number of set-ups timed for setup_s;
	// a short set-up is repeated until setupFor has gone into it (or
	// 40 times minSetups), so its median is as steady as a long one's.
	minSetups int
	setupFor  time.Duration
	// simExact is the frame count of sim-receive's fixed-count runs.
	simExact int
	// misaddress is a test hook: the pool's expectation table is made
	// to disagree with one frame's address, so the run must count it.
	misaddress bool
}

const rounds = 5

// tally is the correctness account of a run: operations attempted,
// operations failed, and the first few failures in words.
type tally struct {
	attempted, failed uint64
	notes             []string
}

func (t *tally) fail(n uint64, format string, args ...any) {
	if n == 0 {
		n = 1
	}
	t.failed += n
	if len(t.notes) < 12 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// roundData is what the phases of one round moved and sampled.
type roundData struct {
	packets, bytes uint64
	elapsed        int64 // ns, capacity phase
	rtt            []int64
	churn          []int64
	occSum, occN   float64 // window occupancy at send, serve-* only
}

func (rd *roundData) pps() float64 { return ratio(float64(rd.packets)*1e9, float64(rd.elapsed)) }

// bench is one workload.  The runner times set-up, then drives the
// three phases of each round; rec is nil unless harness spans are on.
type bench interface {
	setup() error
	teardown()
	// shares splits a round between capacity, W=1 ping-pong and churn.
	shares() (capacity, pingpong, churn float64)
	capacity(d time.Duration, rec *recorder, rd *roundData)
	pingpong(d time.Duration, rec *recorder, rd *roundData)
	churn(d time.Duration, rec *recorder, rd *roundData)
	// layers fills the per-layer metrics of a traced run: means of the
	// recorded spans plus the workload's isolated probes.
	layers(rec *recorder, tracedPPS float64, out map[string]float64)
	// finish drains the system and reconciles every counter.
	finish()
	tally() *tally
}

func newBench(cfg config) (bench, error) {
	switch cfg.workload {
	case wDemuxLinear, wDemuxTable, wChurnTable:
		return newDemux(cfg), nil
	case wServeSmall, wServeBulk:
		return newServe(cfg), nil
	case wSimReceive:
		return newSimBench(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
}

// outcome is a finished run.
type outcome struct {
	cfg     config
	tally   tally
	values  map[string]float64    // metric name -> value
	spread  map[string][2]float64 // end-to-end metric -> round quartiles
	samples map[string]int        // percentile metric -> samples per round (median)
	spans   string                // span file written, traced run only
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}

// runOne executes one run of one workload.
func runOne(cfg config) (*outcome, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{cfg: cfg, values: make(map[string]float64),
		spread: make(map[string][2]float64), samples: make(map[string]int)}

	// Set-up, several times: setup_s is the median, and the last
	// instance built is the one measured.
	var setups []float64
	var setupTotal time.Duration
	for {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		dt := time.Since(t0)
		setups = append(setups, dt.Seconds())
		setupTotal += dt
		if len(setups) >= cfg.minSetups && (setupTotal >= cfg.setupFor || len(setups) >= 40*cfg.minSetups) {
			break
		}
		b.teardown()
	}
	defer b.teardown()
	setupMed := median(setups)
	q1, q3 := quartiles(setups)

	// Twice, with a pause: the goroutines of the set-ups torn down
	// above let go of their instances a moment after Close returns.
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	round := time.Duration(cfg.seconds / rounds * float64(time.Second))
	capShare, ppShare, churnShare := b.shares()
	capD := time.Duration(float64(round) * capShare)
	ppD := time.Duration(float64(round) * ppShare)
	churnD := time.Duration(float64(round) * churnShare)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// One discarded warm-up round: caches fill, queues and scratch
	// slices reach their steady size, the GC settles.
	warm := &roundData{}
	b.capacity(capD/2, nil, warm)
	b.pingpong(ppD/2, nil, warm)
	b.churn(churnD/2, nil, warm)

	per := make(map[string][]float64)
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var allRTT, allChurn []int64
	var tracedPPS, plainPPS []float64
	for i := 0; i < rounds; i++ {
		rd := &roundData{}
		if cfg.trace {
			// Harness spans off and on, back to back, in alternating
			// order: the pair gives the tracing overhead; the
			// per-layer numbers come from the traced half.
			plain := &roundData{}
			rec.beginPhase()
			if i%2 == 0 {
				b.capacity(capD/2, nil, plain)
				b.capacity(capD/2, rec, rd)
			} else {
				b.capacity(capD/2, rec, rd)
				b.capacity(capD/2, nil, plain)
			}
			plainPPS = append(plainPPS, plain.pps())
			tracedPPS = append(tracedPPS, rd.pps())
		} else {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c0 := cpuMicros()
			b.capacity(capD, nil, rd)
			c1 := cpuMicros()
			runtime.ReadMemStats(&m1)
			pk := float64(rd.packets)
			add(mCPU, ratio(c1-c0, pk))
			add(mAllocs, ratio(float64(m1.Mallocs-m0.Mallocs), pk))
			add(mAllocBytes, ratio(float64(m1.TotalAlloc-m0.TotalAlloc), pk))
		}
		if rec != nil {
			rec.beginPhase()
		}
		b.pingpong(ppD, rec, rd)
		if rec != nil {
			rec.beginPhase()
		}
		b.churn(churnD, rec, rd)

		add(mPPS, rd.pps())
		add(mGoodput, ratio(float64(rd.bytes)*1e3, float64(rd.elapsed)))
		slices.Sort(rd.rtt)
		slices.Sort(rd.churn)
		add(mRTTp50, float64(percentile(rd.rtt, 50))/1e3)
		add(mRTTp90, float64(percentile(rd.rtt, 90))/1e3)
		add(mChurnP50, float64(percentile(rd.churn, 50))/1e3)
		add("n.rtt", float64(len(rd.rtt)))
		add("n.churn", float64(len(rd.churn)))
		if rd.occN > 0 {
			add("bench.window_full_share", rd.occSum/rd.occN)
		}
		allRTT = append(allRTT, rd.rtt...)
		allChurn = append(allChurn, rd.churn...)
	}

	if cfg.trace {
		layer := make(map[string]float64)
		layer["bench.trace_overhead_pct"] = 100 * (1 - ratio(median(tracedPPS), median(plainPPS)))
		layer["bench.window_full_share"] = median(per["bench.window_full_share"])
		slices.Sort(allRTT)
		slices.Sort(allChurn)
		layer["rtt.p99_us"] = float64(percentile(allRTT, 99)) / 1e3
		layer["rtt.p999_us"] = float64(percentile(allRTT, 99.9)) / 1e3
		layer["rtt.mean_us"] = meanInt(allRTT) / 1e3
		layer["live.port.churn_op_p90_us"] = float64(percentile(allChurn, 90)) / 1e3
		layer["live.port.churn_op_p99_us"] = float64(percentile(allChurn, 99)) / 1e3
		layer["live.port.churn_op_mean_us"] = meanInt(allChurn) / 1e3
		b.layers(rec, median(tracedPPS), layer)
		for _, d := range perLayer {
			v := 0.0
			if d.on(cfg.workload) {
				v = layer[d.Name]
			}
			out.values[d.Name] = v
		}
	} else {
		for _, d := range endToEnd {
			if vals, ok := per[d.Name]; ok {
				out.values[d.Name] = median(vals)
				a, c := quartiles(vals)
				out.spread[d.Name] = [2]float64{a, c}
			}
		}
		out.values[mSetup] = setupMed
		out.spread[mSetup] = [2]float64{q1, q3}
		out.values[mHeap] = heapMB
		out.spread[mHeap] = [2]float64{heapMB, heapMB}
		out.samples[mRTTp50] = int(median(per["n.rtt"]))
		out.samples[mRTTp90] = out.samples[mRTTp50]
		out.samples[mChurnP50] = int(median(per["n.churn"]))
		out.samples[mSetup] = len(setups)
	}

	b.finish()
	out.tally = *b.tally()

	if rec != nil {
		path, err := rec.write(cfg.outDir, cfg.workload)
		if err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		out.spans = path
	}
	return out, nil
}
