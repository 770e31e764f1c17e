package ethersim

import (
	"encoding/binary"
	"testing"
)

// TestSaturatedWireKeepsQueueBounded: a sender that always has frames
// waiting never lets the transmit queue drain, so the head-indexed
// queue must slide its live jobs down rather than grow for ever — and
// must still put frames on the wire in order.
func TestSaturatedWireKeepsQueueBounded(t *testing.T) {
	s, net := newNet(t, Ether10Mb)
	a := net.Attach(s.NewHost("a"), 1)
	b := net.Attach(s.NewHost("b"), 2)
	b.QueueLimit = 1 << 20
	const total = 5000
	sent, got := 0, 0
	send := func() {
		var seq [4]byte
		binary.BigEndian.PutUint32(seq[:], uint32(sent))
		sent++ // before Transmit: putting a frame on the wire sends the next
		if err := a.Transmit(Ether10Mb.Encode(2, 1, EtherTypePup, seq[:])); err != nil {
			t.Fatal(err)
		}
	}
	b.Handler = perFrame(func(f []byte) {
		if n := int(binary.BigEndian.Uint32(f[len(f)-4:])); n != got {
			t.Fatalf("frame %d arrived in position %d", n, got)
		}
		got++
	})
	// One more frame queued for each that goes on the wire: the
	// backlog never falls below three.
	net.DropFn = func(uint64, []byte) bool {
		if sent < total {
			send()
		}
		if len(net.txq)-net.txHead < 3 && sent > 8 && sent < total {
			t.Fatalf("backlog fell to %d", len(net.txq)-net.txHead)
		}
		return false
	}
	for i := 0; i < 4; i++ {
		send()
	}
	s.Run(0)
	if got != total {
		t.Fatalf("received %d of %d frames", got, total)
	}
	if cap(net.txq) > 32 {
		t.Fatalf("transmit queue grew to %d slots for a backlog of 4", cap(net.txq))
	}
}
