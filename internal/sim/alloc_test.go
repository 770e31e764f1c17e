package sim

import (
	"testing"

	"repro/internal/vtime"
)

func skipAllocsUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
}

// TestSleepAllocationFree: the wake-up event is the process's
// pre-bound resume func on a pooled event.
func TestSleepAllocationFree(t *testing.T) {
	skipAllocsUnderRace(t)
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	allocs := -1.0
	s.Spawn(h, "p", func(p *Proc) {
		p.Sleep(ms(1))
		allocs = testing.AllocsPerRun(200, func() { p.Sleep(ms(1)) })
	})
	s.Run(0)
	if allocs != 0 {
		t.Errorf("Sleep allocates %.1f/call, want 0", allocs)
	}
}

// TestWaitWakeAllocationFree: the waiter record and the timeout
// callback live in the Proc, the queue pops from a head index, and
// the wake-up is the pre-bound resume func — so a Wait/WakeOne cycle
// allocates nothing once the event pool and the queue are warm, with
// or without a timeout armed (and cancelled) each time round.
func TestWaitWakeAllocationFree(t *testing.T) {
	skipAllocsUnderRace(t)
	for _, timeout := range []float64{0, 50} {
		s := New(vtime.DefaultCosts())
		h := s.NewHost("a")
		q := s.NewWaitQ()
		stop := false
		woken := 0
		s.Spawn(h, "waiter", func(p *Proc) {
			for !stop {
				if p.Wait(q, ms(timeout)) {
					woken++
				}
			}
		})
		allocs := -1.0
		s.Spawn(h, "waker", func(p *Proc) {
			cycle := func() {
				q.WakeOne(h)
				p.Sleep(ms(1))
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			allocs = testing.AllocsPerRun(200, cycle)
			stop = true
			q.WakeOne(h)
		})
		s.Run(0)
		if woken < 200 {
			t.Fatalf("timeout %vms: waiter woken %d times", timeout, woken)
		}
		if allocs != 0 {
			t.Errorf("timeout %vms: Wait+WakeOne allocates %.1f/cycle, want 0", timeout, allocs)
		}
	}
}

// TestPipeAllocatesOnlyTheMessage: one Write+Read moves a message
// through the pipe for exactly one allocation, the kernel's copy of
// the bytes (which Read hands to the reader).
func TestPipeAllocatesOnlyTheMessage(t *testing.T) {
	skipAllocsUnderRace(t)
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	pipe := s.NewPipe(h, 4)
	read := 0
	s.Spawn(h, "reader", func(p *Proc) {
		for len(p.Read(pipe)) > 0 {
			read++
		}
	})
	allocs := -1.0
	s.Spawn(h, "writer", func(p *Proc) {
		msg := make([]byte, 64)
		cycle := func() {
			p.Write(pipe, msg)
			p.Sleep(ms(5)) // long enough for the reader to finish
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		allocs = testing.AllocsPerRun(200, cycle)
		p.Write(pipe, nil) // tells the reader to stop
	})
	s.Run(0)
	if read != 8+201 {
		t.Fatalf("reader got %d messages, want %d", read, 8+201)
	}
	if allocs != 1 {
		t.Errorf("pipe Write+Read allocates %.1f/message, want 1 (the message copy)", allocs)
	}
}
