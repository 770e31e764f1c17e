package ethersim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vtime"
)

// TestSteerQueueContract pins the steering hash's three promises for
// both link types: the result is in range, deterministic, and a pure
// function of the (src, dst, type) tuple — the payload never matters,
// which is what keeps every frame of one flow on one queue.
func TestSteerQueueContract(t *testing.T) {
	for _, link := range []LinkType{Ether3Mb, Ether10Mb} {
		for src := Addr(1); src <= 32; src++ {
			a := link.Encode(2, src, EtherTypePup, []byte{1, 2, 3})
			b := link.Encode(2, src, EtherTypePup, make([]byte, 200))
			for _, n := range []int{1, 2, 3, 4, 8, 16} {
				q := link.SteerQueue(a, n)
				if q < 0 || q >= n {
					t.Fatalf("%v src %d: queue %d out of [0,%d)", link, src, q, n)
				}
				if link.SteerQueue(a, n) != q {
					t.Fatalf("%v src %d n %d: steering not deterministic", link, src, n)
				}
				if got := link.SteerQueue(b, n); got != q {
					t.Fatalf("%v src %d n %d: payload changed queue %d -> %d",
						link, src, n, q, got)
				}
			}
			if link.SteerQueue(a, 1) != 0 {
				t.Fatalf("single queue must always steer to 0")
			}
		}
	}
}

// TestSteerQueueShortFrame: frames too short to decode steer to queue
// 0 rather than panicking or scattering.
func TestSteerQueueShortFrame(t *testing.T) {
	for _, link := range []LinkType{Ether3Mb, Ether10Mb} {
		for l := 0; l < link.HeaderLen(); l++ {
			if q := link.SteerQueue(make([]byte, l), 8); q != 0 {
				t.Fatalf("%v: %d-byte frame steered to %d, want 0", link, l, q)
			}
		}
	}
}

// TestSteerQueueSpreads: the hash must actually distribute flows — 64
// sources over 4 queues with every queue used.  Deterministic, so a
// failure would mean the hash (not luck) is bad.
func TestSteerQueueSpreads(t *testing.T) {
	for _, link := range []LinkType{Ether3Mb, Ether10Mb} {
		const n = 4
		var hits [n]int
		for src := Addr(1); src <= 64; src++ {
			hits[link.SteerQueue(link.Encode(2, src, EtherTypePup, nil), n)]++
		}
		for q, c := range hits {
			if c == 0 {
				t.Errorf("%v: queue %d never chosen across 64 flows (%v)", link, q, hits)
			}
		}
	}
}

// FuzzSteering drives SteerQueue with arbitrary frame headers: for any
// input the hash must stay deterministic, in range for its queue
// count, and flow-pure — no two frames sharing a header prefix (the
// whole flow tuple) may land on different queues.
func FuzzSteering(f *testing.F) {
	f.Add([]byte{}, uint8(4))
	f.Add(Ether3Mb.Encode(2, 1, EtherTypePup3Mb, []byte{9}), uint8(2))
	f.Add(Ether10Mb.Encode(2, 7, EtherTypeIP, []byte{1, 2, 3}), uint8(8))
	f.Add(Ether10Mb.Encode(Broadcast10Mb, 0xFFFF, EtherTypeARP, nil), uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8) {
		n := int(nRaw%16) + 1
		for _, link := range []LinkType{Ether3Mb, Ether10Mb} {
			q := link.SteerQueue(data, n)
			if q < 0 || q >= n {
				t.Fatalf("%v: queue %d out of [0,%d)", link, q, n)
			}
			if got := link.SteerQueue(data, n); got != q {
				t.Fatalf("%v: steering not deterministic (%d then %d)", link, q, got)
			}
			if len(data) >= link.HeaderLen() {
				// Same flow tuple, different payload: same queue.
				twin := append(append([]byte(nil), data[:link.HeaderLen()]...), 0xAB, 0xCD)
				if got := link.SteerQueue(twin, n); got != q {
					t.Fatalf("%v: two frames of one flow steered to %d and %d", link, q, got)
				}
			}
		}
	})
}

// TestMultiQueueReceive drives a 4-queue NIC with eight flows and
// checks the demux end to end: per-queue receive counts must equal
// what SteerQueue predicts, per-flow delivery order must hold, every
// frame must be steered (counter), and the driver cost must appear
// under the per-queue KernelTime tags.
func TestMultiQueueReceive(t *testing.T) {
	s := sim.New(vtime.Costs{DriverRecv: 100 * time.Microsecond, Steer: 6 * time.Microsecond})
	net := New(s, Ether10Mb)
	ha, hb := s.NewHost("a"), s.NewHost("b")
	na := net.Attach(ha, 1)
	nb := net.Attach(hb, 2)
	nb.SetQueues(4)
	if nb.Queues() != 4 {
		t.Fatalf("Queues() = %d, want 4", nb.Queues())
	}

	// seq tracks per-flow sequence numbers as delivered.
	lastSeq := map[Addr]byte{}
	total := 0
	nb.Handler = func(frames [][]byte, _ []uint64, queue int) {
		for _, frame := range frames {
			_, src, _, payload, err := Ether10Mb.Decode(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if q := Ether10Mb.SteerQueue(frame, 4); queue != q {
				t.Fatalf("frame on queue %d, steering says %d", queue, q)
			}
			if payload[0] != lastSeq[src] {
				t.Fatalf("flow %d out of order: got seq %d, want %d", src, payload[0], lastSeq[src])
			}
			lastSeq[src]++
			total++
		}
	}

	const flows, perFlow = 8, 5
	want := make([]uint64, 4)
	s.Spawn(ha, "send", func(p *sim.Proc) {
		for seq := byte(0); seq < perFlow; seq++ {
			for f := 0; f < flows; f++ {
				frame := Ether10Mb.Encode(2, Addr(10+f), EtherTypePup, []byte{seq})
				want[Ether10Mb.SteerQueue(frame, 4)]++
				if err := na.Transmit(frame); err != nil {
					t.Errorf("transmit: %v", err)
				}
			}
		}
	})
	s.Run(0)

	if total != flows*perFlow {
		t.Fatalf("delivered %d frames, want %d", total, flows*perFlow)
	}
	got := nb.QueueRx()
	busy := 0
	for q := range got {
		if got[q] != want[q] {
			t.Errorf("queue %d rx = %d, steering predicts %d", q, got[q], want[q])
		}
		if got[q] > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Errorf("only %d of 4 queues used across %d flows", busy, flows)
	}
	if hb.Counters.SteeredFrames != uint64(flows*perFlow) {
		t.Errorf("SteeredFrames = %d, want %d", hb.Counters.SteeredFrames, flows*perFlow)
	}
	for q := 0; q < 4; q++ {
		if got[q] > 0 && hb.KernelTime[tagFor(q)] == 0 {
			t.Errorf("no kernel time under %q despite %d frames", tagFor(q), got[q])
		}
	}
	// The per-frame driver charge on a lane is DriverRecv + Steer.
	wantTime := time.Duration(flows*perFlow) * (100 + 6) * time.Microsecond
	var sum time.Duration
	for q := 0; q < 4; q++ {
		sum += hb.KernelTime[tagFor(q)]
	}
	if sum != wantTime {
		t.Errorf("summed per-queue driver time = %v, want %v", sum, wantTime)
	}
}

func tagFor(q int) string {
	return [...]string{"driver.q0", "driver.q1", "driver.q2", "driver.q3"}[q]
}

// TestSingleQueueHasNoSteerCost: with one queue there is no steering —
// no Steer charge, no SteeredFrames, the plain "driver" tag.
func TestSingleQueueHasNoSteerCost(t *testing.T) {
	s := sim.New(vtime.Costs{DriverRecv: 100 * time.Microsecond, Steer: 6 * time.Microsecond})
	net := New(s, Ether10Mb)
	ha, hb := s.NewHost("a"), s.NewHost("b")
	na := net.Attach(ha, 1)
	nb := net.Attach(hb, 2)
	got := 0
	nb.Handler = perFrame(func([]byte) { got++ })
	s.Spawn(ha, "send", func(p *sim.Proc) {
		na.Transmit(Ether10Mb.Encode(2, 1, EtherTypePup, []byte{1}))
	})
	s.Run(0)
	if got != 1 {
		t.Fatalf("delivered %d frames, want 1", got)
	}
	if hb.Counters.SteeredFrames != 0 {
		t.Errorf("SteeredFrames = %d on a single-queue NIC", hb.Counters.SteeredFrames)
	}
	if hb.KernelTime["driver"] != 100*time.Microsecond {
		t.Errorf("driver time = %v, want plain DriverRecv", hb.KernelTime["driver"])
	}
}
