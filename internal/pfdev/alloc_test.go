package pfdev

import (
	"testing"
	"time"

	"repro/internal/ethersim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// allocWorld builds the smallest steady-state receive universe: one
// host, one device, one bound port with a deep queue, no tracer.
func allocWorld(t testing.TB) (*sim.Sim, *Device, *Port) {
	s := sim.New(vtime.DefaultCosts())
	net := ethersim.New(s, ethersim.Ether3Mb)
	ha := s.NewHost("a")
	na := net.Attach(ha, 1)
	d := Attach(na, nil, Options{})
	var port *Port
	s.Spawn(ha, "ctl", func(p *sim.Proc) {
		port = d.Open(p)
		if err := port.SetFilter(p, socketFilter(10, 35)); err != nil {
			t.Error(err)
		}
		port.SetQueueLimit(p, 1<<16)
	})
	s.Run(0)
	if port == nil {
		t.Fatal("port setup did not run")
	}
	return s, d, port
}

// TestReceivePathAllocationFree pins the whole per-frame kernel
// receive path — device input, filter match, pending-delivery queue,
// kernel CPU scheduling and port enqueue — at zero heap allocations
// per packet once pools and backing arrays are warm.  This is the
// assertion behind the sweep speedups: a trial's hot loop must not
// pressure the collector.
func TestReceivePathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	s, d, port := allocWorld(t)
	match := pupTo(1, 2, 1, 35)
	miss := pupTo(1, 2, 1, 99)
	deliver := func(frame []byte) {
		d.inputSpanned(frame, 0)
		s.Run(0)
	}
	// Warm every free list this path touches: the sim event pool, the
	// host's cpuReq pool, the device's pending-delivery queue and the
	// port queue's backing array.
	for i := 0; i < 64; i++ {
		deliver(match)
	}
	for port.Len() > 0 {
		port.popFront(1)
	}
	deliver(miss)

	if a := testing.AllocsPerRun(200, func() {
		deliver(match)
		if port.Len() != 1 {
			t.Fatalf("frame not delivered (qlen %d)", port.Len())
		}
		port.popFront(1)
	}); a != 0 {
		t.Errorf("matched receive path allocates %.1f/packet, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		deliver(miss)
		if port.Len() != 0 {
			t.Fatalf("non-matching frame delivered")
		}
	}); a != 0 {
		t.Errorf("dropped receive path allocates %.1f/packet, want 0", a)
	}
}

// TestReceivePathAllocationFreeWithSpans re-pins the same path with a
// metrics tracer attached and span tracking at sampling 1: origin
// stamp, every stage mark, the port enqueue, user-delivery termination
// with its histogram observations, and the typed-drop path must all
// stay at zero heap allocations per packet.  The flight recorder is a
// preallocated ring and every taxonomy counter name is interned, so
// always-on provenance costs no garbage.
func TestReceivePathAllocationFreeWithSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	s, d, port := allocWorld(t)
	tr := trace.New()
	sp := tr.EnableSpans(trace.SpanConfig{Ring: 256})
	s.SetTracer(tr)
	match := pupTo(1, 2, 1, 35)
	miss := pupTo(1, 2, 1, 99)

	deliverMatch := func() {
		span := tr.SpanOrigin(s.Now(), "a")
		d.inputSpanned(match, span)
		s.Run(0)
		if port.Len() != 1 {
			t.Fatalf("frame not delivered (qlen %d)", port.Len())
		}
		tr.SpanDelivered(port.queued()[0].Span(), s.Now(), "a", port.id)
		port.popFront(1)
	}
	deliverMiss := func() {
		span := tr.SpanOrigin(s.Now(), "a")
		d.inputSpanned(miss, span)
		s.Run(0)
		if port.Len() != 0 {
			t.Fatalf("non-matching frame delivered")
		}
	}
	// Warm pools, metric map entries and the span ring.
	for i := 0; i < 64; i++ {
		deliverMatch()
		deliverMiss()
	}

	if a := testing.AllocsPerRun(200, deliverMatch); a != 0 {
		t.Errorf("span-tracked delivery allocates %.1f/packet, want 0", a)
	}
	if a := testing.AllocsPerRun(200, deliverMiss); a != 0 {
		t.Errorf("span-tracked drop path allocates %.1f/packet, want 0", a)
	}
	if sp.Live() != 0 {
		t.Fatalf("Live = %d: every packet must have terminated", sp.Live())
	}
	if sp.Created != sp.DeliveredUser+sp.TotalDrops() {
		t.Fatalf("conservation broken: created=%d user=%d drops=%d",
			sp.Created, sp.DeliveredUser, sp.TotalDrops())
	}
}

// TestCoalescedReceiveAllocs bounds a coalesced receive end to end: a
// 4-frame send, Transmit through a budget-4 NIC and the device to the
// port queue, makes at most 16 allocations.  Four are Transmit's
// copies of the frames; the rest belong to the NIC's coalescing state
// machine — the burst and span appends, which regrow after each flush
// slices past them, one closure per flush and per moderation timer,
// and the timers themselves.
func TestCoalescedReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	s := sim.New(vtime.DefaultCosts())
	net := ethersim.New(s, ethersim.Ether3Mb)
	ha, hb := s.NewHost("a"), s.NewHost("b")
	na := net.Attach(ha, 1)
	d := Attach(net.Attach(hb, 2), nil, Options{CoalesceBudget: 4, CoalesceDelay: time.Millisecond})
	var port *Port
	s.Spawn(hb, "ctl", func(p *sim.Proc) {
		port = d.Open(p)
		if err := port.SetFilter(p, socketFilter(10, 35)); err != nil {
			t.Error(err)
		}
		port.SetQueueLimit(p, 1<<10)
	})
	s.Run(0)
	frame := pupTo(2, 1, 1, 35)
	send := func() {
		for i := 0; i < 4; i++ {
			if err := na.Transmit(frame); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(0)
		if port.Len() != 4 {
			t.Fatalf("%d of 4 frames queued", port.Len())
		}
		port.popFront(4)
	}
	for i := 0; i < 8; i++ {
		send()
	}
	bursts := hb.Counters.Bursts
	if a := testing.AllocsPerRun(100, send); a > 16 {
		t.Errorf("coalesced 4-frame receive allocates %.1f, want <= 16", a)
	}
	// AllocsPerRun makes one warm-up run beyond the 100 it measures.
	if n := hb.Counters.Bursts - bursts; n >= 4*101 {
		t.Fatalf("%d bursts for %d frames: nothing coalesced", n, 4*101)
	}
}

// BenchmarkReceivePath measures the real (wall-clock) cost of one
// simulated frame delivery end to end, allocation-counted.
func BenchmarkReceivePath(b *testing.B) {
	s, d, port := allocWorld(b)
	frame := pupTo(1, 2, 1, 35)
	for i := 0; i < 64; i++ {
		d.inputSpanned(frame, 0)
		s.Run(0)
	}
	for port.Len() > 0 {
		port.popFront(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.inputSpanned(frame, 0)
		s.Run(0)
		port.popFront(1)
	}
}
