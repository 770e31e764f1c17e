package ethersim

import (
	"bytes"
	"testing"
)

// TestTransmitToHandlerAllocatesOnlyKeptCopies pins the uncoalesced
// wire path, Transmit through the receiving NIC's Handler, at exactly
// three allocations per frame — the copies whose bytes someone else
// may still hold: Transmit's copy of the caller's frame, the txJob
// that delayed or duplicated deliveries keep referring to, and the
// receiving interface's own copy.  The wire-busy completion and the
// driver entry's completion are pre-bound, not a closure per frame.
func TestTransmitToHandlerAllocatesOnlyKeptCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	s, net := newNet(t, Ether10Mb)
	a := net.Attach(s.NewHost("a"), 1)
	b := net.Attach(s.NewHost("b"), 2)
	frame := Ether10Mb.Encode(2, 1, EtherTypePup, make([]byte, 100))
	got := 0
	b.Handler = func(f []byte) {
		if !bytes.Equal(f, frame) {
			t.Errorf("frame %d arrived altered", got)
		}
		got++
	}
	send := func() {
		if err := a.Transmit(frame); err != nil {
			t.Fatal(err)
		}
		s.Run(0)
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 3 {
		t.Errorf("Transmit to Handler allocates %.1f/frame, want 3", allocs)
	}
	if got != 8+201 {
		t.Fatalf("handler saw %d frames, want %d", got, 8+201)
	}
}

// TestQueuedFramesKeepTheirOrderAndBytes: with the frame riding a
// FIFO beside its span instead of a closure, a backlog of distinct
// frames on the receiving CPU must still reach the handler in order,
// each with its own bytes.
func TestQueuedFramesKeepTheirOrderAndBytes(t *testing.T) {
	s, net := newNet(t, Ether10Mb)
	a := net.Attach(s.NewHost("a"), 1)
	b := net.Attach(s.NewHost("b"), 2)
	var got []byte
	b.Handler = func(f []byte) { got = append(got, f[len(f)-1]) }
	// Hold the receiver's CPU so every frame queues behind it.
	b.Host().RunKernel("hog", 50_000_000, nil)
	for i := 0; i < 20; i++ {
		if err := a.Transmit(Ether10Mb.Encode(2, 1, EtherTypePup, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0)
	if len(got) != 20 {
		t.Fatalf("handler saw %d frames, want 20", len(got))
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("frame order = %v", got)
		}
	}
}
