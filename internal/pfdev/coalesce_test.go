package pfdev

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// stormRun drives a bursty receive workload — the sender blasts frames
// back-to-back so the receiving CPU falls behind — with the given
// coalescing config, and returns the rig after the run.
func stormRun(t *testing.T, budget int, delay time.Duration, nFrames int) (*rig, int) {
	t.Helper()
	r := newRig(t, Options{CoalesceBudget: budget, CoalesceDelay: delay})
	got := 0
	r.s.Spawn(r.hb, "recv", func(p *sim.Proc) {
		port := r.db.Open(p)
		port.SetFilter(p, socketFilter(10, 35))
		port.SetQueueLimit(p, 4*nFrames)
		port.SetTimeout(p, 50*time.Millisecond)
		for {
			batch, err := port.ReadBatch(p)
			if err != nil {
				return
			}
			got += len(batch)
		}
	})
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond) // let the receiver finish setup
		for i := 0; i < nFrames; i++ {
			// Raw transmits, not port writes: no syscall pacing, so
			// the frames are wire-back-to-back.
			r.da.NIC().Transmit(pupTo(2, 1, 1, 35))
		}
	})
	r.s.Run(0)
	return r, got
}

// TestCoalesceBatchesBurst is the tentpole's headline property: under a
// back-to-back burst, coalescing forms multi-frame bursts and cuts
// kernel entries and reader wakeups without losing or reordering
// anything.
func TestCoalesceBatchesBurst(t *testing.T) {
	const nFrames = 24
	plain, plainGot := stormRun(t, 0, 0, nFrames)
	coal, coalGot := stormRun(t, 4, time.Millisecond, nFrames)

	if plainGot != nFrames || coalGot != nFrames {
		t.Fatalf("delivered %d/%d frames, want %d/%d", plainGot, coalGot, nFrames, nFrames)
	}
	if plain.hb.Counters.Bursts != 0 {
		t.Errorf("uncoalesced run recorded %d bursts", plain.hb.Counters.Bursts)
	}
	pc, cc := plain.hb.Counters, coal.hb.Counters
	if cc.Bursts == 0 || cc.CoalescedFrames != nFrames {
		t.Fatalf("coalesced run: bursts=%d coalesced=%d, want >0 and %d",
			cc.Bursts, cc.CoalescedFrames, nFrames)
	}
	if cc.Bursts >= nFrames {
		t.Errorf("%d bursts for %d frames: nothing batched", cc.Bursts, nFrames)
	}
	if cc.KernelEntries >= pc.KernelEntries {
		t.Errorf("kernel entries did not drop: %d coalesced vs %d plain",
			cc.KernelEntries, pc.KernelEntries)
	}
	if cc.PacketsMatched != pc.PacketsMatched {
		t.Errorf("matched %d coalesced vs %d plain", cc.PacketsMatched, pc.PacketsMatched)
	}
	// Coalescing amortizes the FilterApply setup charge, not the
	// evaluations: every frame still applies every filter.
	if cc.FilterApplied != pc.FilterApplied || cc.FilterInstrs != pc.FilterInstrs {
		t.Errorf("filter work %d/%d coalesced vs %d/%d plain (applied/instrs)",
			cc.FilterApplied, cc.FilterInstrs, pc.FilterApplied, pc.FilterInstrs)
	}
}

// pacedRun drives paced traffic (gaps longer than the per-packet
// service time, so the blocked reader wakes per delivery) with the
// given coalescing config and returns the receiving host's counters
// after all frames were read.
func pacedRun(t *testing.T, budget int, delay time.Duration, nFrames int) *rig {
	t.Helper()
	r := newRig(t, Options{CoalesceBudget: budget, CoalesceDelay: delay})
	got := 0
	r.s.Spawn(r.hb, "recv", func(p *sim.Proc) {
		port := r.db.Open(p)
		port.SetFilter(p, socketFilter(10, 35))
		port.SetQueueLimit(p, 4*nFrames)
		port.SetTimeout(p, 60*time.Millisecond)
		for {
			if _, err := port.Read(p); err != nil {
				break
			}
			got++
		}
	})
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		for i := 0; i < nFrames; i++ {
			r.da.NIC().Transmit(pupTo(2, 1, 1, 35))
			p.Sleep(2 * time.Millisecond)
		}
	})
	r.s.Run(0)
	if got != nFrames {
		t.Fatalf("read %d frames, want %d", got, nFrames)
	}
	return r
}

// TestCoalescePacedWakeups covers the reader-wakeup half of the
// tentpole: with paced traffic the uncoalesced device wakes the blocked
// reader once per packet, while a moderation delay longer than the
// packet gap gathers the stream into bursts and wakes the reader once
// per burst.
func TestCoalescePacedWakeups(t *testing.T) {
	const nFrames = 24
	plain := pacedRun(t, 0, 0, nFrames)
	coal := pacedRun(t, 4, 25*time.Millisecond, nFrames)

	pc, cc := plain.hb.Counters, coal.hb.Counters
	if cc.Bursts == 0 || cc.CoalescedFrames != nFrames {
		t.Fatalf("coalesced run: bursts=%d coalesced=%d, want >0 and %d",
			cc.Bursts, cc.CoalescedFrames, nFrames)
	}
	if cc.Wakeups*2 > pc.Wakeups {
		t.Errorf("wakeups did not drop 2x: %d coalesced vs %d plain", cc.Wakeups, pc.Wakeups)
	}
	if cc.KernelEntries*2 > pc.KernelEntries {
		t.Errorf("kernel entries did not drop 2x: %d coalesced vs %d plain",
			cc.KernelEntries, pc.KernelEntries)
	}
	if cc.PacketsMatched != pc.PacketsMatched {
		t.Errorf("matched %d coalesced vs %d plain", cc.PacketsMatched, pc.PacketsMatched)
	}
	// Coalescing amortizes the FilterApply setup charge, not the
	// evaluations: every frame still applies every filter.
	if cc.FilterApplied != pc.FilterApplied || cc.FilterInstrs != pc.FilterInstrs {
		t.Errorf("filter work %d/%d coalesced vs %d/%d plain (applied/instrs)",
			cc.FilterApplied, cc.FilterInstrs, pc.FilterApplied, pc.FilterInstrs)
	}
}

// tracedRun drives a fixed paced workload under the given options with
// a full event sink attached and returns the event stream.
func tracedRun(t *testing.T, opt Options) *trace.Recorder {
	t.Helper()
	r := newRig(t, opt)
	tr := trace.New()
	rec := &trace.Recorder{}
	tr.SetSink(rec)
	r.s.SetTracer(tr)
	r.s.Spawn(r.hb, "recv", func(p *sim.Proc) {
		port := r.db.Open(p)
		port.SetFilter(p, socketFilter(10, 35))
		port.SetTimeout(p, 30*time.Millisecond)
		for {
			if _, err := port.Read(p); err != nil {
				return
			}
		}
	})
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		port := r.da.Open(p)
		p.Sleep(time.Millisecond)
		for i := 0; i < 10; i++ {
			port.Write(p, pupTo(2, 1, byte(1+i%3), 35))
			p.Sleep(time.Duration(i%4) * time.Millisecond)
		}
	})
	r.s.Run(0)
	return rec
}

// wakeOrder opens two copy-all ports on the receiving host, each with a
// reader blocked in ReadBatch, then sends a frame to a socket neither
// accepts followed by n frames both accept, and returns the receiving
// host's enqueue and wakeup events in trace order.
func wakeOrder(t *testing.T, opt Options, n int) []string {
	t.Helper()
	r := newRig(t, opt)
	tr := trace.New()
	rec := &trace.Recorder{}
	tr.SetSink(rec)
	r.s.SetTracer(tr)
	for i := 0; i < 2; i++ {
		r.s.Spawn(r.hb, "recv", func(p *sim.Proc) {
			port := r.db.Open(p)
			port.SetFilter(p, socketFilter(10, 35))
			port.SetCopyAll(p, true)
			if _, err := port.ReadBatch(p); err != nil {
				t.Errorf("read: %v", err)
			}
		})
	}
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond) // both readers are blocked by now
		// The unmatched frame takes a coalesced NIC's first-interrupt
		// flush, so the frames after it can travel as one burst.
		r.da.NIC().Transmit(pupTo(2, 1, 1, 99))
		for i := 0; i < n; i++ {
			r.da.NIC().Transmit(pupTo(2, 1, 1, 35))
		}
	})
	r.s.Run(0)
	var got []string
	for _, e := range rec.Events {
		if e.Host == "b" && (e.Kind == trace.KindEnqueue || e.Kind == trace.KindWakeup) {
			got = append(got, e.Kind.String())
		}
	}
	return got
}

// TestLoneFrameWakeOrder pins the two wake rules of one driver entry's
// delivery: a lone frame wakes each accepting port as it is queued,
// while a burst queues every frame on every port and then wakes each
// touched port once.
func TestLoneFrameWakeOrder(t *testing.T) {
	lone := wakeOrder(t, Options{}, 1)
	if want := []string{"enqueue", "wakeup", "enqueue", "wakeup"}; !reflect.DeepEqual(lone, want) {
		t.Errorf("lone frame: trace %v, want %v", lone, want)
	}
	burst := wakeOrder(t, Options{CoalesceBudget: 3, CoalesceDelay: 5 * time.Millisecond}, 3)
	want := []string{"enqueue", "enqueue", "enqueue", "enqueue", "enqueue", "enqueue", "wakeup", "wakeup"}
	if !reflect.DeepEqual(burst, want) {
		t.Errorf("3-frame burst: trace %v, want %v", burst, want)
	}
}

// TestCoalesceOffBitIdentical pins the acceptance criterion that
// disabling coalescing (budget 0, or the degenerate budget 1) leaves
// the receive path byte-for-byte as it was: the full trace event
// streams are identical.
func TestCoalesceOffBitIdentical(t *testing.T) {
	base := tracedRun(t, Options{})
	off := tracedRun(t, Options{CoalesceBudget: 1, CoalesceDelay: time.Millisecond})
	if len(base.Events) == 0 {
		t.Fatal("no events traced; test proves nothing")
	}
	if !reflect.DeepEqual(base.Events, off.Events) {
		t.Fatalf("budget<=1 perturbed the trace: %d events vs %d baseline",
			len(off.Events), len(base.Events))
	}
}

// TestCoalesceDeterminism runs the same coalesced storm twice and
// requires bit-identical event streams: the burst buffer, budget cutoff
// and moderation timer all ride the simulation event queue.
func TestCoalesceDeterminism(t *testing.T) {
	opt := Options{CoalesceBudget: 4, CoalesceDelay: time.Millisecond}
	a := tracedRun(t, opt)
	b := tracedRun(t, opt)
	if len(a.Events) == 0 {
		t.Fatal("no events traced")
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("two identical coalesced runs diverged")
	}
}

// isolatedLatency sends one lone packet and returns the virtual time at
// which the blocked reader's Read completed.
func isolatedLatency(t *testing.T, opt Options) time.Duration {
	t.Helper()
	r := newRig(t, opt)
	var done time.Duration
	r.s.Spawn(r.hb, "recv", func(p *sim.Proc) {
		port := r.db.Open(p)
		port.SetFilter(p, socketFilter(10, 35))
		if _, err := port.Read(p); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		done = p.Now()
	})
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		r.da.NIC().Transmit(pupTo(2, 1, 1, 35))
	})
	r.s.Run(0)
	if done == 0 {
		t.Fatal("packet never delivered")
	}
	return done
}

// TestCoalesceIsolatedLatencyUnchanged pins the other acceptance
// criterion: an isolated packet is flushed immediately (the NAPI
// first-interrupt path) and its singleton burst takes the ordinary
// per-frame path, so coalescing adds zero latency when there is
// nothing to batch.
func TestCoalesceIsolatedLatencyUnchanged(t *testing.T) {
	plain := isolatedLatency(t, Options{})
	coal := isolatedLatency(t, Options{CoalesceBudget: 8, CoalesceDelay: 5 * time.Millisecond})
	if plain != coal {
		t.Fatalf("isolated delivery at %v coalesced vs %v plain", coal, plain)
	}
}

// TestCoalesceCrashClearsBurst crashes the receiving host in the middle
// of a coalesced storm: the buffered burst and moderation timer die
// with the kernel, and after a restart a fresh port receives new
// traffic normally.
func TestCoalesceCrashClearsBurst(t *testing.T) {
	r := newRig(t, Options{CoalesceBudget: 4, CoalesceDelay: time.Millisecond})
	got := 0
	r.s.Spawn(r.hb, "recv", func(p *sim.Proc) {
		port := r.db.Open(p)
		port.SetFilter(p, socketFilter(10, 35))
		port.SetQueueLimit(p, 64)
		for {
			if _, err := port.Read(p); err != nil {
				return // ErrClosed at the crash
			}
		}
	})
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		for i := 0; i < 16; i++ {
			r.da.NIC().Transmit(pupTo(2, 1, 1, 35))
		}
		p.Sleep(25 * time.Millisecond) // second wave after the restart
		for i := 0; i < 4; i++ {
			r.da.NIC().Transmit(pupTo(2, 1, 1, 35))
		}
	})
	// The storm reaches host b from ~5.1ms; crash lands mid-burst.
	r.s.After(5*time.Millisecond+200*time.Microsecond, func() { r.hb.Crash() })
	r.s.After(20*time.Millisecond, func() {
		r.hb.Restart()
		r.s.Spawn(r.hb, "recv2", func(p *sim.Proc) {
			port := r.db.Open(p)
			port.SetFilter(p, socketFilter(10, 35))
			port.SetTimeout(p, 40*time.Millisecond)
			for {
				if _, err := port.Read(p); err != nil {
					return
				}
				got++
			}
		})
	})
	r.s.Run(0)
	if got != 4 {
		t.Fatalf("post-restart port received %d packets, want 4", got)
	}
}
