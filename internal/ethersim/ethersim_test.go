package ethersim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vtime"
)

func newNet(t *testing.T, link LinkType) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(vtime.Costs{DriverRecv: 100 * time.Microsecond})
	return s, New(s, link)
}

func TestEncodeDecode3Mb(t *testing.T) {
	payload := []byte{1, 2, 3, 4}
	frame := Ether3Mb.Encode(0x42, 0x17, EtherTypePup3Mb, payload)
	if len(frame) != 4+4 {
		t.Fatalf("frame len = %d", len(frame))
	}
	dst, src, typ, pl, err := Ether3Mb.Decode(frame)
	if err != nil || dst != 0x42 || src != 0x17 || typ != EtherTypePup3Mb {
		t.Fatalf("decode: %v %v %v %v", dst, src, typ, err)
	}
	if string(pl) != string(payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestEncodeDecode10Mb(t *testing.T) {
	dstIn, srcIn := Addr(0xAABB_CCDD_EEFF), Addr(0x0102_0304_0506)
	frame := Ether10Mb.Encode(dstIn, srcIn, EtherTypeIP, []byte{9})
	if len(frame) != 15 {
		t.Fatalf("frame len = %d", len(frame))
	}
	dst, src, typ, pl, err := Ether10Mb.Decode(frame)
	if err != nil || dst != dstIn || src != srcIn || typ != EtherTypeIP || len(pl) != 1 {
		t.Fatalf("decode: %x %x %x %v", uint64(dst), uint64(src), typ, err)
	}
	if _, _, _, _, err := Ether10Mb.Decode(frame[:10]); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestLinkParameters(t *testing.T) {
	if Ether3Mb.HeaderWords() != 2 || Ether10Mb.HeaderWords() != 7 {
		t.Error("header words wrong")
	}
	if Ether3Mb.TypeWord() != 1 || Ether10Mb.TypeWord() != 6 {
		t.Error("type word wrong")
	}
	if Ether3Mb.BroadcastAddr() != Broadcast3Mb || Ether10Mb.BroadcastAddr() != Broadcast10Mb {
		t.Error("broadcast wrong")
	}
	if Ether3Mb.String() != "3Mb" || Ether10Mb.String() != "10Mb" {
		t.Error("string wrong")
	}
}

func TestUnicastDelivery(t *testing.T) {
	s, net := newNet(t, Ether10Mb)
	h1, h2, h3 := s.NewHost("a"), s.NewHost("b"), s.NewHost("c")
	n1 := net.Attach(h1, 1)
	n2 := net.Attach(h2, 2)
	n3 := net.Attach(h3, 3)

	var got2, got3 int
	n2.Handler = perFrame(func(frame []byte) { got2++ })
	n3.Handler = perFrame(func(frame []byte) { got3++ })

	frame := Ether10Mb.Encode(2, 1, EtherTypeIP, make([]byte, 100))
	if err := n1.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if got2 != 1 || got3 != 0 {
		t.Fatalf("got2=%d got3=%d", got2, got3)
	}
	if h2.Counters.PacketsIn != 1 || h1.Counters.PacketsOut != 1 {
		t.Fatalf("counters: in=%d out=%d", h2.Counters.PacketsIn, h1.Counters.PacketsOut)
	}
}

func TestBroadcastAndPromiscuous(t *testing.T) {
	s, net := newNet(t, Ether3Mb)
	h1, h2, h3 := s.NewHost("a"), s.NewHost("b"), s.NewHost("c")
	n1 := net.Attach(h1, 1)
	n2 := net.Attach(h2, 2)
	n3 := net.Attach(h3, 3)
	n3.Promiscuous = true

	var got2, got3 int
	n2.Handler = perFrame(func([]byte) { got2++ })
	n3.Handler = perFrame(func([]byte) { got3++ })

	// Broadcast reaches everyone but the sender.
	n1.Transmit(Ether3Mb.Encode(Broadcast3Mb, 1, EtherTypePup3Mb, nil))
	// Unicast to h2 also reaches the promiscuous h3.
	n1.Transmit(Ether3Mb.Encode(2, 1, EtherTypePup3Mb, nil))
	s.Run(0)
	if got2 != 2 || got3 != 2 {
		t.Fatalf("got2=%d got3=%d", got2, got3)
	}
}

func TestTransmissionTimeAndSerialization(t *testing.T) {
	// Two 1250-byte frames at 10 Mb/s: 1 ms each, serialized on the
	// shared wire.
	s := sim.New(vtime.Costs{})
	net := New(s, Ether10Mb)
	h1, h2 := s.NewHost("a"), s.NewHost("b")
	n1 := net.Attach(h1, 1)
	n2 := net.Attach(h2, 2)
	var deliveries []time.Duration
	n2.Handler = perFrame(func([]byte) { deliveries = append(deliveries, s.Now()) })

	frame := Ether10Mb.Encode(2, 1, EtherTypeIP, make([]byte, 1250-14))
	n1.Transmit(frame)
	n1.Transmit(frame)
	s.Run(0)
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	if deliveries[0] != time.Millisecond || deliveries[1] != 2*time.Millisecond {
		t.Fatalf("delivery times = %v", deliveries)
	}
	if net.FramesOnWire != 2 {
		t.Fatalf("frames on wire = %d", net.FramesOnWire)
	}
}

func Test3MbIsSlower(t *testing.T) {
	s := sim.New(vtime.Costs{})
	net := New(s, Ether3Mb)
	h1, h2 := s.NewHost("a"), s.NewHost("b")
	n1 := net.Attach(h1, 1)
	var at time.Duration
	net.Attach(h2, 2).Handler = perFrame(func([]byte) { at = s.Now() })
	n1.Transmit(Ether3Mb.Encode(2, 1, EtherTypePup3Mb, make([]byte, 296)))
	s.Run(0)
	// 300 bytes at 3 Mb/s = 800 µs.
	if at != 800*time.Microsecond {
		t.Fatalf("delivered at %v, want 800µs", at)
	}
}

func TestOversizedAndRuntFrames(t *testing.T) {
	s, net := newNet(t, Ether10Mb)
	n1 := net.Attach(s.NewHost("a"), 1)
	if err := n1.Transmit(make([]byte, Ether10Mb.MaxFrame()+1)); err == nil {
		t.Error("oversized frame accepted")
	}
	if err := n1.Transmit(make([]byte, 3)); err == nil {
		t.Error("runt frame accepted")
	}
}

func TestInputQueueOverflow(t *testing.T) {
	s := sim.New(vtime.Costs{DriverRecv: 10 * time.Millisecond}) // slow kernel
	net := New(s, Ether10Mb)
	h1, h2 := s.NewHost("a"), s.NewHost("b")
	n1 := net.Attach(h1, 1)
	n2 := net.Attach(h2, 2)
	n2.QueueLimit = 2
	var got int
	n2.Handler = perFrame(func([]byte) { got++ })

	frame := Ether10Mb.Encode(2, 1, EtherTypeIP, make([]byte, 50))
	for i := 0; i < 10; i++ {
		n1.Transmit(frame)
	}
	s.Run(0)
	if n2.Drops == 0 {
		t.Fatal("expected input-queue drops")
	}
	if got+int(n2.Drops) != 10 {
		t.Fatalf("got=%d drops=%d", got, n2.Drops)
	}
	if h2.Counters.PacketsDropped != n2.Drops {
		t.Fatalf("host drop counter mismatch")
	}
}

// perFrame adapts a per-frame callback to the NIC's Handler, which
// receives each driver entry's frames together.
func perFrame(fn func(frame []byte)) func([][]byte, []uint64, int) {
	return func(frames [][]byte, _ []uint64, _ int) {
		for _, f := range frames {
			fn(f)
		}
	}
}
