package ethersim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestCoalesceBurstsAtNIC exercises the interrupt-coalescing state
// machine at the interface level: back-to-back frames are handed to the
// Handler in bursts no larger than the budget, in arrival order, each
// with its frames' spans on queue 0, and an isolated frame after an
// idle gap arrives alone (the NAPI "first interrupt" path).
func TestCoalesceBurstsAtNIC(t *testing.T) {
	s, net := newNet(t, Ether3Mb)
	tr := spanTracer(s)
	ha, hb := s.NewHost("a"), s.NewHost("b")
	na := net.Attach(ha, 1)
	nb := net.Attach(hb, 2)

	const budget = 3
	nb.SetCoalesce(budget, 500*time.Microsecond)
	spanOf := map[byte]uint64{} // tag -> the span its Transmit created
	var bursts [][]byte         // tag bytes per burst
	nb.Handler = func(frames [][]byte, spans []uint64, queue int) {
		checkEntry(t, frames, spans, spanOf, 4)
		if queue != 0 {
			t.Errorf("burst on queue %d of a single-queue NIC", queue)
		}
		tags := make([]byte, len(frames))
		for i, f := range frames {
			tags[i] = f[4]
		}
		bursts = append(bursts, tags)
	}
	send := func(tag byte) {
		na.Transmit(Ether3Mb.Encode(2, 1, EtherTypePup3Mb, []byte{tag}))
		spanOf[tag] = tr.LastSpan()
	}

	s.Spawn(ha, "send", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 7; i++ {
			// Back-to-back: the wire paces the frames, the receiving
			// driver (100µs per entry) falls behind, bursts form.
			send(byte(i))
		}
		// After an idle gap well past the moderation delay, one
		// isolated frame must come up alone and immediately.
		p.Sleep(20 * time.Millisecond)
		send(99)
	})
	s.Run(0)

	var got []byte
	for _, b := range bursts {
		if len(b) == 0 || len(b) > budget {
			t.Errorf("burst of %d frames, budget %d", len(b), budget)
		}
		got = append(got, b...)
	}
	want := []byte{0, 1, 2, 3, 4, 5, 6, 99}
	if len(got) != len(want) {
		t.Fatalf("delivered tags %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frames out of order: %v, want %v", got, want)
		}
	}
	if len(bursts) >= 8 {
		t.Errorf("%d bursts for 8 frames: nothing coalesced", len(bursts))
	}
	if last := bursts[len(bursts)-1]; len(last) != 1 || last[0] != 99 {
		t.Errorf("isolated frame arrived in burst %v, want [99]", last)
	}

	if hb.Counters.Bursts != uint64(len(bursts)) {
		t.Errorf("Bursts counter = %d, observed %d bursts", hb.Counters.Bursts, len(bursts))
	}
	if hb.Counters.CoalescedFrames != 8 {
		t.Errorf("CoalescedFrames = %d, want 8", hb.Counters.CoalescedFrames)
	}
	if s.Counters.Bursts != hb.Counters.Bursts ||
		s.Counters.CoalescedFrames != hb.Counters.CoalescedFrames {
		t.Error("global burst counters disagree with host counters")
	}
}

// TestHandlerSpansAndQueue checks the Handler's arguments on a 4-queue
// NIC, uncoalesced (every entry a burst of one) and coalesced: spans[k]
// is frame k's provenance span, and queue is the queue the steering
// hash picks for every frame of the entry.
func TestHandlerSpansAndQueue(t *testing.T) {
	for _, budget := range []int{0, 4} {
		s := sim.New(vtime.Costs{DriverRecv: 400 * time.Microsecond})
		net := New(s, Ether10Mb)
		tr := spanTracer(s)
		na := net.Attach(s.NewHost("a"), 1)
		nb := net.Attach(s.NewHost("b"), 2)
		nb.SetQueues(4)
		nb.SetCoalesce(budget, 0)
		spanOf := map[byte]uint64{}
		got, longest := 0, 0
		nb.Handler = func(frames [][]byte, spans []uint64, queue int) {
			checkEntry(t, frames, spans, spanOf, Ether10Mb.HeaderLen())
			for _, f := range frames {
				if q := Ether10Mb.SteerQueue(f, 4); q != queue {
					t.Errorf("budget %d: frame steered to queue %d handed up on queue %d", budget, q, queue)
				}
			}
			got += len(frames)
			longest = max(longest, len(frames))
		}
		const n = 24
		s.Spawn(na.Host(), "send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				// Two flows, so two queues carry traffic.
				na.Transmit(Ether10Mb.Encode(2, Addr(10+i%2), EtherTypePup, []byte{byte(i)}))
				spanOf[byte(i)] = tr.LastSpan()
			}
		})
		s.Run(0)
		if got != n {
			t.Fatalf("budget %d: %d frames handed up, want %d", budget, got, n)
		}
		if budget == 0 && longest != 1 || budget > 1 && longest < 2 {
			t.Errorf("budget %d: longest entry %d frames", budget, longest)
		}
	}
}

// spanTracer installs a tracer that gives every transmitted frame a
// span.
func spanTracer(s *sim.Sim) *trace.Tracer {
	tr := trace.New()
	tr.EnableSpans(trace.SpanConfig{})
	s.SetTracer(tr)
	return tr
}

// checkEntry checks that a Handler's spans are indexed like its frames:
// spans[k] is the span the sender recorded for frame k's tag, the byte
// at tagAt.
func checkEntry(t *testing.T, frames [][]byte, spans []uint64, spanOf map[byte]uint64, tagAt int) {
	t.Helper()
	if len(spans) != len(frames) {
		t.Fatalf("%d spans for %d frames", len(spans), len(frames))
	}
	for k, f := range frames {
		if want := spanOf[f[tagAt]]; spans[k] == 0 || spans[k] != want {
			t.Errorf("frame %d (tag %d) carries span %d, want %d", k, f[tagAt], spans[k], want)
		}
	}
}

// TestCoalesceTimerClearedOnCrash is the regression test for the
// moderation-timer leak: a crash must clear every receive queue's
// coalescing state — buffered burst, poll flag AND the armed
// moderation timer.  A stale timer would fire after the crash and
// flush pre-crash frames into the restarted kernel (resurrecting
// frames the crash already accounted as DropCrash).  Exercised on a
// 4-queue NIC with two flows steered to different queues, so the
// per-queue clearing is what's under test.
func TestCoalesceTimerClearedOnCrash(t *testing.T) {
	s, net := newNet(t, Ether10Mb)
	ha, hb := s.NewHost("a"), s.NewHost("b")
	na := net.Attach(ha, 1)
	nb := net.Attach(hb, 2)
	nb.SetQueues(4)
	// Budget above the pre-crash backlog, long moderation delay: the
	// buffered frames can only ever surface via the timer.
	nb.SetCoalesce(4, 2*time.Millisecond)

	// Two sources steering to two different queues, so both queues
	// hold an armed timer at crash time.
	var srcs []Addr
	for src := Addr(10); len(srcs) < 2; src++ {
		f := Ether10Mb.Encode(2, src, EtherTypePup, nil)
		q := Ether10Mb.SteerQueue(f, 4)
		if len(srcs) == 0 || q != Ether10Mb.SteerQueue(
			Ether10Mb.Encode(2, srcs[0], EtherTypePup, nil), 4) {
			srcs = append(srcs, src)
		}
	}

	var got []byte
	nb.Handler = perFrame(func(frame []byte) { got = append(got, frame[14]) })

	frame := func(src Addr, tag byte) []byte {
		return Ether10Mb.Encode(2, src, EtherTypePup, []byte{tag})
	}
	sendBurst := func(extra byte) {
		// Per flow: the first frame flushes immediately (the NAPI
		// "interrupt"); the next two arrive during that poll, buffer,
		// and wait on the moderation timer.
		for i, src := range srcs {
			for tag := byte(0); tag < 3; tag++ {
				na.Transmit(frame(src, byte(10*(i+1))+extra+tag))
			}
		}
	}
	s.Spawn(ha, "send", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		sendBurst(0)
	})
	// Crash after the first flush of each flow completed but before
	// the ~3.1ms moderation timers fire; restart and send a second
	// round of bursts while the stale timers (if leaked) are still
	// pending.
	s.After(2500*time.Microsecond, func() { hb.Crash() })
	s.After(2800*time.Microsecond, func() { hb.Restart() })
	s.Spawn(ha, "fresh", func(p *sim.Proc) {
		p.Sleep(2900 * time.Microsecond)
		sendBurst(7)
	})
	// Checkpoint between the stale timers' fire time (~3.1ms) and the
	// legitimate post-restart moderation deadline (~5.0ms): only the
	// head frame of each post-restart burst may have been delivered.
	// A leaked timer fails this two ways — it flushes the new burst
	// ~2ms early, and the pre-crash frames it would have carried must
	// stay dead (the crash accounted them DropCrash).
	s.After(4500*time.Microsecond, func() {
		want := []byte{10, 20, 17, 27}
		if len(got) != len(want) {
			t.Errorf("at 4.5ms delivered tags %v, want %v (stale moderation timer?)", got, want)
		}
	})
	s.Run(0)

	// End state: the pre-crash head frames, then the complete
	// post-restart bursts on the proper moderation schedule.  The
	// frames buffered at crash time (11, 12, 21, 22) died with the
	// kernel and never reappear.
	want := []byte{10, 20, 17, 27, 18, 19, 28, 29}
	if len(got) != len(want) {
		t.Fatalf("delivered tags %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered tags %v, want %v", got, want)
		}
	}
}

// TestCrashClearsPerQueueCoalesceState is the white-box regression for
// the per-queue crash reset: a crash must clear EVERY receive queue's
// coalesce machine — buffered burst, poll flag, inflight count,
// pending count, span FIFO and, crucially, the armed moderation timer
// (a stale timer handle would also wedge pollDone's re-arming after
// restart).  The pre-crash probe proves timers really were armed, so
// the test cannot pass vacuously.
func TestCrashClearsPerQueueCoalesceState(t *testing.T) {
	s, net := newNet(t, Ether10Mb)
	ha, hb := s.NewHost("a"), s.NewHost("b")
	na := net.Attach(ha, 1)
	nb := net.Attach(hb, 2)
	nb.SetQueues(4)
	nb.SetCoalesce(4, 2*time.Millisecond)
	nb.Handler = perFrame(func([]byte) {})

	s.Spawn(ha, "send", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		// Several flows, each parking buffered frames behind an armed
		// moderation timer on its queue.
		for _, src := range []Addr{10, 11, 12, 13} {
			for i := 0; i < 3; i++ {
				na.Transmit(Ether10Mb.Encode(2, src, EtherTypePup, []byte{byte(i)}))
			}
		}
	})
	crashAt := 2500 * time.Microsecond
	s.After(crashAt-time.Microsecond, func() {
		armed, buffered := 0, 0
		for _, q := range nb.queues {
			if q.flushTimer != nil {
				armed++
			}
			buffered += len(q.burst)
		}
		if armed == 0 || buffered == 0 {
			t.Fatalf("pre-crash: %d timers armed, %d frames buffered — scenario never built the state under test", armed, buffered)
		}
	})
	s.After(crashAt, func() { hb.Crash() })
	s.After(crashAt+time.Microsecond, func() {
		for i, q := range nb.queues {
			if q.flushTimer != nil {
				t.Errorf("queue %d: moderation timer survived the crash", i)
			}
			if len(q.burst) != 0 || len(q.burstSpans) != 0 {
				t.Errorf("queue %d: %d buffered frames survived the crash", i, len(q.burst))
			}
			if q.polling || q.inflight != 0 || q.pending != 0 {
				t.Errorf("queue %d: polling=%v inflight=%d pending=%d after crash, want all zero",
					i, q.polling, q.inflight, q.pending)
			}
			if len(q.rxPend)-q.rxHead != 0 {
				t.Errorf("queue %d: %d spans still pending after crash", i, len(q.rxPend)-q.rxHead)
			}
		}
	})
	s.Run(0)
}
