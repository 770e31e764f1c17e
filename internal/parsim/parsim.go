// Package parsim runs independent simulation trials across real OS
// threads.  A sim.Sim is fully deterministic and fully isolated — its
// event loop runs on Run's caller and resumes processes as coroutines,
// so exactly one goroutine per universe is ever running, every
// universe has its own clock, event heap, hosts, tracer and metrics,
// and nothing package-level is mutated on the hot path — so N trials with disjoint Sims can execute concurrently with
// no locking and bit-identical results.  This package is the worker
// pool that exploits that: multi-seed suites (the chaos soak, the
// equivalence properties, benchmark sweeps) run trials in parallel and
// still collect results in deterministic trial order.
//
// The determinism contract (also documented in DESIGN.md):
//
//   - Each trial builds its OWN Sim (and tracer, and fault plan)
//     inside fn; trials must not share a Sim, Host, Device or Tracer.
//   - fn may use testing.T's goroutine-safe methods (Error, Errorf,
//     Logf) but not FailNow/Fatalf, which must be called from the test
//     goroutine after Map returns.
//   - Results are delivered in trial order regardless of completion
//     order, so output built from them is byte-identical to a
//     sequential run.
package parsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 select
// GOMAXPROCS (one worker per schedulable CPU), anything else is taken
// as given.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// trialPanic preserves a panic raised inside a trial so it can be
// re-raised deterministically (lowest trial first) on the caller's
// goroutine.
type trialPanic struct {
	val   any
	stack []byte
}

// Map runs fn(0) .. fn(n-1), each trial exactly once, across a pool of
// workers (Workers(workers) of them, capped at n) and returns the
// results indexed by trial.  With workers == 1 it runs inline with no
// goroutines at all, so a sequential run is trivially the reference
// behavior.  If any trial panics, every remaining trial still runs,
// and Map then re-panics with the lowest-numbered trial's panic —
// deterministic regardless of scheduling.
func Map[T any](n, workers int, fn func(trial int) T) []T {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	results := make([]T, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			results[i] = fn(i)
		}
		return results
	}

	panics := make([]*trialPanic, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							buf := make([]byte, 16<<10)
							buf = buf[:runtime.Stack(buf, false)]
							panics[i] = &trialPanic{val: r, stack: buf}
						}
					}()
					results[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("parsim: trial %d panicked: %v\n%s", i, p.val, p.stack))
		}
	}
	return results
}

// Do runs fn(0) .. fn(n-1) for side effects collected by the caller
// through the results of a closure; it is Map for trials with no
// return value.
func Do(n, workers int, fn func(trial int)) {
	Map(n, workers, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}
