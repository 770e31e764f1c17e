package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/vtime"
)

// Per-layer wall-clock numbers for the simulator core.  Each runs b.N
// operations inside one Run; EXPERIMENTS.md records them.

// BenchmarkSleep is the self-resume path: one process, one timer event
// and one coroutine resume per operation.
func BenchmarkSleep(b *testing.B) {
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	s.Spawn(h, "p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}

// BenchmarkWaitWake is the cross-process path: two processes wake each
// other in turn, so every operation resumes the other process.
func BenchmarkWaitWake(b *testing.B) {
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	qa, qb := s.NewWaitQ(), s.NewWaitQ()
	s.Spawn(h, "a", func(p *Proc) {
		p.Yield()
		for i := 0; i < b.N; i += 2 {
			qb.WakeOne(h)
			p.Wait(qa, 0)
		}
	})
	s.Spawn(h, "b", func(p *Proc) {
		for i := 0; i < b.N; i += 2 {
			p.Wait(qb, 0)
			qa.WakeOne(h)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}

// BenchmarkConsume is one CPU grant on an idle host: request, pump,
// completion event, resume.
func BenchmarkConsume(b *testing.B) {
	s := New(vtime.DefaultCosts())
	h := s.NewHost("a")
	s.Spawn(h, "p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Consume(time.Millisecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}

// BenchmarkEventQueue is one After plus one pop with the queue held at
// a fixed depth: every event that fires schedules its successor a
// pseudo-random delay ahead.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{8, 128} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := New(vtime.Costs{})
			fired := 0
			x := uint64(1)
			var fire func()
			fire = func() {
				if fired++; fired+depth <= b.N {
					x = x*6364136223846793005 + 1442695040888963407
					s.After(time.Duration(1+x>>54)*time.Microsecond, fire)
				}
			}
			for i := 0; i < depth && i < b.N; i++ {
				s.After(time.Duration(i)*time.Microsecond, fire)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(0)
			if fired != b.N {
				b.Fatalf("fired %d events, want %d", fired, b.N)
			}
		})
	}
}
