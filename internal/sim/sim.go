// Package sim is a deterministic discrete-event simulation of the
// operating-system substrate the paper's measurements ran on: a set of
// uniprocessor hosts, each with processes, system calls, context
// switches, kernel/user data copies and pipes, all charged virtual
// time from the calibrated cost model in package vtime.
//
// Protocol code in this repository is written in ordinary blocking
// style (read, write, wait); under the hood each simulated process is
// an iter.Pull coroutine.  The event loop runs on Run's caller: an
// event that resumes a process switches to it on the spot, and the
// process switches back when it parks again or returns, so exactly one
// of them runs at a time and simulations are fully deterministic and
// need no locking.  "Event-loop context" below means code run from an
// event, outside every process body.
//
// The paper's performance arguments are about counts: how many context
// switches, system calls and copies a received packet costs under each
// demultiplexing scheme (figures 2-1 through 3-5), and how those
// counts translate to time (§6.5).  Hosts and the simulator both
// accumulate vtime.Counters so experiments can report exactly those
// quantities.
package sim

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Sim is the virtual-time implementation of the dual-mode clock
// interface: Now is the discrete-event clock and AfterFunc rides the
// event queue, so code written against clock.Clock runs bit-identically
// under simulation and switches to clock.Wall for live mode.
var _ clock.Clock = (*Sim)(nil)

// Sim is one simulation universe: a virtual clock, an event queue and
// any number of hosts.
type Sim struct {
	now    time.Duration
	events []heapEntry // 4-ary min-heap ordered by (when, seq)
	seq    uint64
	limit  time.Duration // the running Run's limit, 0 for none
	costs  vtime.Costs
	hosts  []*Host
	tracer *trace.Tracer

	// Counters aggregates events across all hosts.
	Counters vtime.Counters

	current *Proc // process currently executing, nil in event loop
	running bool  // a Run is on the stack

	// resumes counts process resumptions, one coroutine switch in and
	// one back each, for the tests.
	resumes uint64

	// free recycles fired events so the per-packet hot path (every
	// CPU grant is one sim.After) allocates nothing in steady state.
	free []*event
}

// New creates a simulation with the given cost model.
func New(costs vtime.Costs) *Sim {
	return &Sim{costs: costs}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Costs returns the cost model in force.
func (s *Sim) Costs() vtime.Costs { return s.costs }

// Hosts returns all hosts in creation order.
func (s *Sim) Hosts() []*Host { return s.hosts }

// SetTracer attaches a tracer (nil detaches).  With no tracer attached
// — the default — instrumentation sites cost a single nil check.
func (s *Sim) SetTracer(t *trace.Tracer) { s.tracer = t }

// Tracer returns the attached tracer, or nil.  Device packages consult
// it at their own instrumentation points.
func (s *Sim) Tracer() *trace.Tracer { return s.tracer }

type event struct {
	gen uint64 // bumped on reuse so stale handles cannot cancel a recycled event
	fn  func()
}

// heapEntry keeps an event's key beside its pointer, so sifting
// compares and moves values without touching the events themselves.
type heapEntry struct {
	when time.Duration
	seq  uint64
	e    *event
}

func (a *heapEntry) before(b *heapEntry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

func (s *Sim) push(it heapEntry) {
	h := append(s.events, it)
	i := len(h) - 1
	for i > 0 && it.before(&h[(i-1)/4]) {
		h[i] = h[(i-1)/4]
		i = (i - 1) / 4
	}
	h[i] = it
	s.events = h
}

// pop removes the earliest entry; the queue must not be empty.
func (s *Sim) pop() heapEntry {
	h := s.events
	top, n := h[0], len(h)-1
	it := h[n] // re-inserted from the root down
	h[n] = heapEntry{}
	s.events = h[:n]
	i := 0
	for first := 1; first < n; first = 4*i + 1 {
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&it) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if n > 0 {
		h[i] = it
	}
	return top
}

// At schedules fn to run in event-loop context at virtual time when
// (clamped to now).  Events at equal times run in scheduling order.
func (s *Sim) At(when time.Duration, fn func()) *event {
	if when < s.now {
		when = s.now
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.gen++
	} else {
		e = &event{}
	}
	e.fn = fn
	s.push(heapEntry{when: when, seq: s.seq, e: e})
	s.seq++
	return e
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) *event {
	return s.At(s.now+d, fn)
}

// cancel marks an event as a no-op; the heap entry stays until popped.
func (e *event) cancel() { e.fn = nil }

// Timer is a cancellable handle on one scheduled event, for device
// code that schedules deferred work it may later abandon — the NIC's
// interrupt-coalescing timer is the motivating user.  A nil Timer is
// safe to Stop.
type Timer struct {
	e   *event
	gen uint64
}

// NewTimer schedules fn to run in event-loop context d from now and
// returns a handle that can cancel it before it fires.
func (s *Sim) NewTimer(d time.Duration, fn func()) *Timer {
	e := s.After(d, fn)
	return &Timer{e: e, gen: e.gen}
}

// AfterFunc implements clock.Clock over the event queue: fn runs in
// event-loop context d of virtual time from now.  It is NewTimer
// behind the interface, so virtual and wall mode share one timer API.
func (s *Sim) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return s.NewTimer(d, fn)
}

// Clock returns the simulation's virtual clock as the dual-mode
// interface device code is written against.
func (s *Sim) Clock() clock.Clock { return s }

// Stop cancels the timer if it has not fired yet.  Stopping a fired or
// already-stopped timer is a no-op.  The generation check makes Stop
// safe after the underlying event has fired and been recycled for an
// unrelated callback.
func (t *Timer) Stop() {
	if t == nil || t.e == nil {
		return
	}
	if t.e.gen == t.gen {
		t.e.cancel()
	}
	t.e = nil
}

// Run processes events until the queue is empty or the virtual clock
// would pass limit (0 means no limit; a limit already behind the clock
// runs nothing and leaves the clock alone).  It returns the virtual
// time at which it stopped.  Run must not be called from process
// context.  Events, and the process bodies they resume, run on Run's
// caller as ordinary calls: a panic in either surfaces here, and a
// runtime.Goexit in either ends Run's caller.
func (s *Sim) Run(limit time.Duration) time.Duration {
	s.assertEventLoop("Run")
	if s.running {
		panic("sim: Run re-entered from an event callback")
	}
	s.running, s.limit = true, limit
	defer func() { s.running, s.current = false, nil }()
	for s.due() {
		if fn := s.take(); fn != nil {
			fn()
		}
	}
	if len(s.events) > 0 && limit > s.now {
		s.now = limit
	}
	return s.now
}

// due reports whether the running Run has an event to fire before its
// limit.
func (s *Sim) due() bool {
	return len(s.events) > 0 && (s.limit == 0 || s.events[0].when <= s.limit)
}

// take pops the next event, moves the clock to it and returns its func.
// The event is recycled first: the func may schedule new events and is
// welcome to reuse this one (its gen is bumped on reuse).
func (s *Sim) take() func() {
	it := s.pop()
	s.now = it.when
	fn := it.e.fn
	it.e.fn = nil
	s.free = append(s.free, it.e)
	return fn
}

// skipTo takes e from process context, without running it, if e is
// the next event Run would fire; the caller does e's work itself.
func (s *Sim) skipTo(e *event) bool {
	if !s.due() || s.events[0].e != e {
		return false
	}
	s.take()
	return true
}

// RunFor advances the simulation by d of virtual time.
func (s *Sim) RunFor(d time.Duration) time.Duration { return s.Run(s.now + d) }

func (s *Sim) assertEventLoop(op string) {
	if s.current != nil {
		panic(fmt.Sprintf("sim: %s called from process %q; only event-loop context may do this", op, s.current.name))
	}
}

func (s *Sim) assertProc(op string) *Proc {
	if s.current == nil {
		panic(fmt.Sprintf("sim: %s called outside process context", op))
	}
	return s.current
}

// runProc resumes p on the spot: its body runs until it parks again
// or returns, and then the calling event carries on.  Event-loop
// context only, so a process never resumes another from its own body.
func (s *Sim) runProc(p *Proc) {
	s.assertEventLoop("runProc")
	if p.done {
		return
	}
	s.current = p
	s.resumes++
	if _, ok := p.next(); !ok {
		p.done = true
	}
	s.current = nil
}

// schedule arranges for p to resume via the event queue; safe from any
// context.
func (s *Sim) schedule(p *Proc) {
	s.At(s.now, p.resumeFn)
}
