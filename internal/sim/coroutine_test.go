package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vtime"
)

// The tests below count process resumptions exactly: each is one
// coroutine switch into the process and one back, independent of any
// timing.

// A lone process resumes once to start and once per wake-up: 1,000
// sleeps cost 1,001 resumptions.
func TestLoneSleeperResumesOncePerSleep(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	slept := 0
	s.Spawn(h, "p", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(ms(1))
			slept++
		}
	})
	s.Run(0)
	if slept != 1000 {
		t.Fatalf("slept %d times, want 1000", slept)
	}
	if s.resumes != 1001 {
		t.Fatalf("%d resumes for a lone sleeper, want 1001", s.resumes)
	}
}

// A CPU grant that ends before anything else happens completes inside
// the process's own request: a lone process resumes once, to start,
// however many system calls, copies and quanta it runs.
func TestCPUGrantsOnIdleHostNeverSwitch(t *testing.T) {
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	s.Spawn(h, "p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Syscall("read")
			p.CopyOut("read", 128)
			p.Consume(ms(1))
		}
	})
	s.Run(0)
	if h.Counters.Syscalls != 100 || h.Counters.Copies != 100 {
		t.Fatalf("counters = %+v", h.Counters)
	}
	if s.resumes != 1 {
		t.Fatalf("%d resumes across 300 CPU grants on an idle host, want 1 (the start)", s.resumes)
	}
}

// When another event is due before a grant ends, the process parks and
// the grant's completion resumes it: two processes on two hosts in
// lockstep resume once each per grant, plus once each to start.
func TestGrantResumesWhenAnotherEventIsDue(t *testing.T) {
	s := New(vtime.DefaultCosts())
	for _, name := range []string{"a", "b"} {
		s.Spawn(s.NewHost(name), name, func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Consume(ms(1))
			}
		})
	}
	s.Run(0)
	if s.resumes != 202 {
		t.Fatalf("%d resumes for 2 x 100 lockstep grants, want 202", s.resumes)
	}
}

// A grant completed inside the request and one completed by its event
// charge the same: the host's accounting and the process's clock
// readings are the same whether or not a ticking timer forces every
// grant to park.
func TestInlineGrantMatchesParkedGrant(t *testing.T) {
	type result struct {
		c          vtime.Counters
		user, kern time.Duration
		stamps     []time.Duration
		resumes    uint64
	}
	run := func(ticking bool) result {
		s := New(vtime.DefaultCosts())
		a := s.NewHost("a")
		q := s.NewWaitQ()
		var stamps []time.Duration
		s.Spawn(a, "p", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Syscall("read")
				p.CopyOut("read", 64*i)
				p.Consume(ms(0.7))
				p.Wait(q, ms(0.3))
				stamps = append(stamps, p.Now())
			}
		})
		if ticking {
			var tick func()
			tick = func() {
				if s.Now() < ms(200) {
					s.After(ms(0.01), tick)
				}
			}
			tick()
		}
		s.Run(0)
		return result{a.Counters, a.UserTime, a.KernelTotal(), stamps, s.resumes}
	}
	quiet, ticking := run(false), run(true)
	if quiet.c != ticking.c || quiet.user != ticking.user || quiet.kern != ticking.kern {
		t.Fatalf("accounting differs: quiet %+v %v %v, ticking %+v %v %v",
			quiet.c, quiet.user, quiet.kern, ticking.c, ticking.user, ticking.kern)
	}
	if fmt.Sprint(quiet.stamps) != fmt.Sprint(ticking.stamps) {
		t.Fatalf("clock readings differ:\n quiet   %v\n ticking %v", quiet.stamps, ticking.stamps)
	}
	// One resume to start and one per timeout either way; the 150
	// grants resume only when the timer makes them park.
	if quiet.resumes != 51 || ticking.resumes != 51+150 {
		t.Fatalf("resumes: quiet %d, ticking %d; want 51 and 201", quiet.resumes, ticking.resumes)
	}
}

// A grant that would end past Run's limit parks the process, so the
// clock stops at the limit and the grant completes in the next Run.
func TestGrantPastRunLimitParks(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	var done time.Duration
	s.Spawn(h, "p", func(p *Proc) {
		p.Consume(ms(10))
		done = p.Now()
	})
	if got := s.Run(ms(5)); got != ms(5) || done != 0 {
		t.Fatalf("Run(5ms) returned %v with the grant done at %v; want 5ms, not done", got, done)
	}
	s.Run(0)
	if done != ms(10) {
		t.Fatalf("grant done at %v, want 10ms", done)
	}
}

// Two processes waking each other in turn genuinely alternate, and
// each wake costs exactly one resumption of the wakee.
func TestPingPongResumesOncePerWake(t *testing.T) {
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	qa, qb := s.NewWaitQ(), s.NewWaitQ()
	const rounds = 200
	var during uint64
	pongs := 0
	s.Spawn(h, "a", func(p *Proc) {
		p.Yield() // let b reach its first Wait
		before := s.resumes
		for i := 0; i < rounds; i++ {
			qb.WakeOne(h)
			p.Wait(qa, 0)
		}
		during = s.resumes - before
	})
	s.Spawn(h, "b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Wait(qb, 0)
			pongs++
			qa.WakeOne(h)
		}
	})
	s.Run(0)
	if pongs != rounds {
		t.Fatalf("%d pongs, want %d", pongs, rounds)
	}
	if during != 2*rounds {
		t.Fatalf("%d resumes for %d wakes, want exactly one each", during, 2*rounds)
	}
}

// Run(limit) resumes exactly the processes whose events fall inside
// the window — and none at all when no process runs inside it.
func TestRunLimitWindowResumesOnlyItsOwnWakes(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	s.Spawn(h, "p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(ms(1))
		}
		p.Sleep(ms(1000))
	})
	s.Run(ms(30.5)) // the start and the wakes at 1..30ms
	if s.resumes != 31 {
		t.Fatalf("first window: %d resumes, want 31", s.resumes)
	}
	s.Run(ms(60.5))
	if s.resumes != 61 {
		t.Fatalf("second window: %d resumes in total, want 61", s.resumes)
	}
	s.Run(ms(200)) // the process sleeps from 100ms to 1100ms
	if s.resumes != 101 {
		t.Fatalf("third window: %d resumes in total, want 101", s.resumes)
	}
	s.After(ms(1), func() {})
	s.Run(ms(300))
	if s.resumes != 101 {
		t.Fatalf("a window in which no process ran cost %d resumes", s.resumes-101)
	}
	if s.Now() != ms(300) {
		t.Fatalf("clock = %v, want 300ms", s.Now())
	}
}

// TestRunLimitBehindClockDoesNotRewind: a limit earlier than Now used
// to set the clock back to it, so later relative timers fired early.
func TestRunLimitBehindClockDoesNotRewind(t *testing.T) {
	s := New(vtime.Costs{})
	s.After(ms(20), func() {})
	s.Run(ms(10))
	if got := s.Run(ms(5)); got != ms(10) || s.Now() != ms(10) {
		t.Fatalf("Run(5ms) at 10ms: returned %v, clock %v; want both 10ms", got, s.Now())
	}
	var fired time.Duration
	s.After(ms(1), func() { fired = s.Now() })
	s.Run(0)
	if fired != ms(11) {
		t.Fatalf("After(1ms) at 10ms fired at %v, want 11ms", fired)
	}
}

// recoverRun runs the simulation and returns what Run panicked with.
func recoverRun(s *Sim) (r any) {
	defer func() { r = recover() }()
	s.Run(0)
	return nil
}

// An event callback that panics while a process is parked panics in
// Run's caller, like any callback; the simulation and the parked
// process both carry on.
func TestCallbackPanicOnProcessGoroutineReachesRun(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	finished := false
	s.Spawn(h, "bystander", func(p *Proc) {
		p.Sleep(ms(10))
		finished = true
	})
	s.After(ms(5), func() { panic("boom") })
	if r := recoverRun(s); r != "boom" {
		t.Fatalf("Run panicked with %v, want boom", r)
	}
	if s.Now() != ms(5) || finished {
		t.Fatalf("clock %v, finished %v after the panic", s.Now(), finished)
	}
	if r := recoverRun(s); r != nil {
		t.Fatalf("second Run panicked: %v", r)
	}
	if !finished || s.Now() != ms(10) {
		t.Fatalf("bystander did not survive: finished %v at %v", finished, s.Now())
	}
}

// The same when the only process has already exited.
func TestCallbackPanicAfterProcessExitReachesRun(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	s.Spawn(h, "short", func(p *Proc) {})
	s.After(ms(5), func() { panic("late boom") })
	if r := recoverRun(s); r != "late boom" {
		t.Fatalf("Run panicked with %v, want late boom", r)
	}
}

// runOutcome runs s on a fresh goroutine and reports how Run left it:
// "returned", "goexit", or the value Run panicked with.
func runOutcome(t *testing.T, s *Sim) any {
	t.Helper()
	got := make(chan any, 1)
	go func() {
		returned := false
		defer func() {
			switch r := recover(); {
			case r != nil:
				got <- r
			case returned:
				got <- "returned"
			default:
				got <- "goexit"
			}
		}()
		s.Run(0)
		returned = true
	}()
	select {
	case r := <-got:
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung")
		return nil
	}
}

// A handler that calls t.FailNow ends its goroutine with
// runtime.Goexit.  Events run on Run's caller, so that goroutine ends,
// running its deferred calls, as with any function call; no process is
// written off, and the next Run finishes the bystander.
func TestCallbackGoexitOnProcessGoroutineReachesRun(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	finished := false
	s.Spawn(h, "bystander", func(p *Proc) {
		p.Sleep(ms(10))
		finished = true
	})
	s.After(ms(5), func() { runtime.Goexit() })
	s.After(ms(20), func() {})
	if r := runOutcome(t, s); r != "goexit" {
		t.Fatalf("Run ended with %v, want goexit", r)
	}
	if s.Now() != ms(5) || finished {
		t.Fatalf("clock %v, finished %v after the Goexit", s.Now(), finished)
	}
	if r := recoverRun(s); r != nil || !finished || s.Now() != ms(20) {
		t.Fatalf("after Goexit: Run panicked with %v, finished %v, clock %v", r, finished, s.Now())
	}
}

// A panic in a process body unwinds through the event that resumed it
// into Run's caller.  The other processes carry on in the next Run —
// including those queued for the CPU grant that resumed the panicking
// process.
func TestProcessPanicReachesRun(t *testing.T) {
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	s.Spawn(h, "doomed", func(p *Proc) {
		p.Consume(ms(1))
		panic("process boom")
	})
	finished := 0
	for _, name := range []string{"b", "c"} {
		s.Spawn(h, name, func(p *Proc) {
			p.Consume(ms(1)) // queued behind doomed's grant
			p.Sleep(ms(5))
			finished++
		})
	}
	if r := recoverRun(s); r != "process boom" {
		t.Fatalf("Run panicked with %v, want process boom", r)
	}
	if s.Now() != ms(1) || finished != 0 {
		t.Fatalf("clock %v, %d finished after the panic", s.Now(), finished)
	}
	if r := recoverRun(s); r != nil {
		t.Fatalf("second Run panicked: %v", r)
	}
	if finished != 2 {
		t.Fatalf("%d of 2 bystanders finished", finished)
	}
}

// runtime.Goexit in a process body ends Run's caller, running its
// deferred calls; the next Run carries the other processes on.
func TestProcessGoexitEndsRunCaller(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	s.Spawn(h, "quitter", func(p *Proc) {
		p.Sleep(ms(1))
		runtime.Goexit()
	})
	finished := false
	s.Spawn(h, "bystander", func(p *Proc) {
		p.Sleep(ms(10))
		finished = true
	})
	if r := runOutcome(t, s); r != "goexit" {
		t.Fatalf("Run ended with %v, want goexit", r)
	}
	if s.Now() != ms(1) || finished {
		t.Fatalf("clock %v, finished %v after the Goexit", s.Now(), finished)
	}
	if r := recoverRun(s); r != nil || !finished || s.Now() != ms(10) {
		t.Fatalf("after Goexit: Run panicked with %v, finished %v, clock %v", r, finished, s.Now())
	}
}

// Only an event resumes a process: one process body resuming another
// directly panics, naming the culprit.
func TestProcessCannotResumeAnother(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	other := s.Spawn(h, "other", func(p *Proc) { p.Sleep(ms(10)) })
	s.Spawn(h, "rogue", func(p *Proc) {
		p.Sleep(ms(1))
		s.runProc(other)
	})
	r := recoverRun(s)
	if msg, _ := r.(string); !strings.Contains(msg, "runProc called from process \"rogue\"") {
		t.Fatalf("Run panicked with %v, want runProc's context check", r)
	}
}
