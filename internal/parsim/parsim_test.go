package parsim

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		var calls atomic.Int64
		got := Map(25, workers, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if calls.Load() != 25 {
			t.Fatalf("workers=%d: %d calls, want 25", workers, calls.Load())
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); got != nil {
		t.Fatalf("Map(0) = %v, want nil", got)
	}
}

func TestWorkersDefault(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
}

// TestMapActuallyParallel proves trials overlap in real time: two
// trials rendezvous at a barrier that can only be passed if both are in
// flight at once.
func TestMapActuallyParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	var barrier sync.WaitGroup
	barrier.Add(2)
	passed := make(chan struct{})
	go func() {
		barrier.Wait()
		close(passed)
	}()
	Do(2, 2, func(i int) {
		barrier.Done()
		select {
		case <-passed:
		case <-time.After(10 * time.Second):
			t.Errorf("trial %d: rendezvous timeout — trials did not overlap", i)
		}
	})
}

// TestMapPanicLowestTrial pins that a panic in any trial surfaces as
// the lowest-numbered trial's panic, after every other trial has run.
func TestMapPanicLowestTrial(t *testing.T) {
	var calls atomic.Int64
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected re-panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "trial 3 panicked: boom 3") {
			t.Fatalf("panic = %v, want trial 3's", r)
		}
		if calls.Load() != 8 {
			t.Fatalf("%d trials ran before re-panic, want all 8", calls.Load())
		}
	}()
	Map(8, 4, func(i int) int {
		calls.Add(1)
		if i == 3 || i == 6 {
			panic("boom " + string(rune('0'+i)))
		}
		return i
	})
}

// TestMapCapturesPanicFromProcessGoroutine: an event callback that
// panics while a process is parked must surface in the trial's Run and
// fail that trial only.
func TestMapCapturesPanicFromProcessGoroutine(t *testing.T) {
	var finished atomic.Int64
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "trial 2 panicked: handler boom") {
			t.Fatalf("panic = %q, want trial 2's", msg)
		}
		if finished.Load() != 5 {
			t.Fatalf("%d other trials finished, want 5", finished.Load())
		}
	}()
	Map(6, 3, func(i int) int {
		s := sim.New(vtime.DefaultCosts())
		h := s.NewHost("a")
		s.Spawn(h, "bystander", func(p *sim.Proc) { p.Sleep(10 * time.Millisecond) })
		if i == 2 {
			// Fires while the bystander is parked.
			s.After(5*time.Millisecond, func() { panic("handler boom") })
		}
		s.Run(0)
		finished.Add(1)
		return i
	})
}

// trialRun drives one complete, self-contained simulation universe —
// wire, two hosts, packet-filter device, a paced source and a reading
// sink — and returns a digest of everything observable: final virtual
// time, delivered count, host counters and the metrics snapshot.
func trialRun(seed int) (time.Duration, int, vtime.Counters, []byte) {
	s := sim.New(vtime.DefaultCosts())
	tr := trace.New()
	s.SetTracer(tr)
	net := ethersim.New(s, ethersim.Ether10Mb)
	hA, hB := s.NewHost("A"), s.NewHost("B")
	nicA, nicB := net.Attach(hA, 1), net.Attach(hB, 2)
	dev := pfdev.Attach(nicB, nil, pfdev.Options{})
	received := 0
	s.Spawn(hB, "sink", func(p *sim.Proc) {
		port := dev.Open(p)
		port.SetFilter(p, filter.Filter{Priority: 1, Program: filter.NewBuilder().
			WordEQ(ethersim.Ether10Mb.TypeWord(), 0x0101).MustProgram()})
		port.SetTimeout(p, 100*time.Millisecond)
		for {
			if _, err := port.Read(p); err != nil {
				return
			}
			received++
		}
	})
	s.Spawn(hA, "src", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		frame := ethersim.Ether10Mb.Encode(2, 1, 0x0101, make([]byte, 64))
		for i := 0; i < 10+seed%5; i++ {
			nicA.Transmit(frame)
			p.Sleep(time.Duration(1+seed%3) * time.Millisecond)
		}
	})
	end := s.Run(2 * time.Second)
	snap, err := tr.Snapshot().JSON()
	if err != nil {
		panic(err)
	}
	return end, received, hB.Counters, snap
}

// TestParallelTrialsBitIdentical is the package's reason to exist:
// whole-universe trials run under the worker pool must be
// indistinguishable from the same trials run sequentially.
func TestParallelTrialsBitIdentical(t *testing.T) {
	type result struct {
		end      time.Duration
		received int
		counters vtime.Counters
		snap     []byte
	}
	run := func(workers int) []result {
		return Map(8, workers, func(i int) result {
			end, n, c, snap := trialRun(i)
			return result{end, n, c, snap}
		})
	}
	seq := run(1)
	par := run(4)
	for i := range seq {
		if seq[i].end != par[i].end || seq[i].received != par[i].received ||
			seq[i].counters != par[i].counters {
			t.Fatalf("trial %d diverged: seq {%v %d} vs par {%v %d}",
				i, seq[i].end, seq[i].received, par[i].end, par[i].received)
		}
		if !bytes.Equal(seq[i].snap, par[i].snap) {
			t.Fatalf("trial %d: metrics snapshot diverged between sequential and parallel runs", i)
		}
	}
}

// TestTwoSimsConcurrently is the package-level-state audit's regression
// test: two Sims advanced from two plain goroutines (no pool) must not
// interfere — run under -race this catches any shared mutable state
// reachable from concurrent universes.
func TestTwoSimsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]int, 2)
	ends := make([]time.Duration, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			end, n, _, _ := trialRun(g)
			ends[g], results[g] = end, n
		}()
	}
	wg.Wait()
	for g := 0; g < 2; g++ {
		end, n, _, _ := trialRun(g)
		if end != ends[g] || n != results[g] {
			t.Fatalf("universe %d diverged when run concurrently: got (%v, %d), want (%v, %d)",
				g, ends[g], results[g], end, n)
		}
	}
}
