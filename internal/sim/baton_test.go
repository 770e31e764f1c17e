package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vtime"
)

// The tests below count baton transfers (one goroutine waking another
// to run the simulation) exactly; they are what "the hand-offs are
// gone" means, independent of any timing.

// A lone process resumes itself: the loop runs on its own goroutine,
// so 1,000 sleeps cost the same two transfers as none would — Run's
// caller into the process, and back when the queue runs dry.
func TestLoneSleeperNeverSwitches(t *testing.T) {
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
	if s.transfers > 2 {
		t.Fatalf("%d transfers for a lone sleeper, want at most 2", s.transfers)
	}
}

// CPU grants on an otherwise idle host come straight back to the
// process that asked: no transfer per system call, copy or quantum.
func TestCPUGrantsOnIdleHostNeverSwitch(t *testing.T) {
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	var during uint64
	s.Spawn(h, "p", func(p *Proc) {
		p.Consume(ms(1))
		before := s.transfers
		for i := 0; i < 100; i++ {
			p.Syscall("read")
			p.CopyOut("read", 128)
			p.Consume(ms(1))
		}
		during = s.transfers - before
	})
	s.Run(0)
	if h.Counters.Syscalls != 100 || h.Counters.Copies != 100 {
		t.Fatalf("counters = %+v", h.Counters)
	}
	if during != 0 {
		t.Fatalf("%d transfers across 300 CPU grants on an idle host, want 0", during)
	}
}

// Two processes waking each other in turn genuinely alternate, and
// each wake costs exactly one transfer (waker's goroutine to wakee's),
// not a round trip through a loop goroutine.
func TestPingPongCostsOneTransferPerWake(t *testing.T) {
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	qa, qb := s.NewWaitQ(), s.NewWaitQ()
	const rounds = 200
	var during uint64
	pongs := 0
	s.Spawn(h, "a", func(p *Proc) {
		p.Yield() // let b reach its first Wait
		before := s.transfers
		for i := 0; i < rounds; i++ {
			qb.WakeOne(h)
			p.Wait(qa, 0)
		}
		during = s.transfers - before
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
		t.Fatalf("%d transfers for %d wakes, want exactly one each", during, 2*rounds)
	}
}

// Run(limit) pays for entering a process and for coming back, however
// often the process resumed in between — and nothing at all when no
// process runs inside the window.
func TestRunLimitCostsAtMostOneTransferEachWay(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	s.Spawn(h, "p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(ms(1))
		}
		p.Sleep(ms(1000))
	})
	s.Run(ms(30.5))
	if s.transfers != 2 {
		t.Fatalf("first window: %d transfers, want 2 (in and back)", s.transfers)
	}
	s.Run(ms(60.5))
	if s.transfers != 4 {
		t.Fatalf("second window: %d transfers in total, want 4", s.transfers)
	}
	s.Run(ms(200)) // the process sleeps from 100ms to 1100ms
	before := s.transfers
	s.After(ms(1), func() {})
	s.Run(ms(300))
	if s.transfers != before {
		t.Fatalf("a window in which no process ran cost %d transfers", s.transfers-before)
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

// An event callback that panics while a parked process holds the loop
// panics in Run's caller, like any callback; the simulation and the
// process that happened to be running the loop both carry on.
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

// The same when the process that holds the loop is exiting.
func TestCallbackPanicAfterProcessExitReachesRun(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	s.Spawn(h, "short", func(p *Proc) {})
	s.After(ms(5), func() { panic("late boom") })
	if r := recoverRun(s); r != "late boom" {
		t.Fatalf("Run panicked with %v, want late boom", r)
	}
}

// A handler that calls t.FailNow ends its goroutine with
// runtime.Goexit.  On a process goroutine that can be neither stopped
// nor allowed to strand Run's caller: Run panics and says why.
func TestCallbackGoexitOnProcessGoroutineReachesRun(t *testing.T) {
	s := New(vtime.Costs{})
	h := s.NewHost("a")
	s.Spawn(h, "bystander", func(p *Proc) { p.Sleep(ms(10)) })
	s.After(ms(5), func() { runtime.Goexit() })
	s.After(ms(20), func() {})
	got := make(chan any, 1)
	go func() { got <- recoverRun(s) }()
	select {
	case r := <-got:
		msg, _ := r.(string)
		if !strings.Contains(msg, "Goexit") || !strings.Contains(msg, "bystander") {
			t.Fatalf("Run panicked with %v, want a message naming Goexit and the process", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after a callback called runtime.Goexit")
	}
	// The lost process is written off; the rest of the simulation runs.
	if r := recoverRun(s); r != nil || s.Now() != ms(20) {
		t.Fatalf("after Goexit: Run panicked with %v, clock %v", r, s.Now())
	}
}
