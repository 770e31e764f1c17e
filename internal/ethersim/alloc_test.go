package ethersim

import (
	"bytes"
	"testing"
)

// TestUnicastFrameAllocatesOneBufferFromTransmitToHandler pins the uncoalesced
// wire path, Transmit through the receiving NIC's Handler, at exactly
// one allocation per frame: Transmit's copy of the caller's frame,
// which the wire hands to its only receiver (see Transmit).  The job
// rides the queue by value, and the wire-busy completion and the
// driver entry's completion are pre-bound, not a closure per frame.
func TestUnicastFrameAllocatesOneBufferFromTransmitToHandler(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	s, net := newNet(t, Ether10Mb)
	a := net.Attach(s.NewHost("a"), 1)
	b := net.Attach(s.NewHost("b"), 2)
	frame := Ether10Mb.Encode(2, 1, EtherTypePup, make([]byte, 100))
	got := 0
	b.Handler = perFrame(func(f []byte) {
		if !bytes.Equal(f, frame) {
			t.Errorf("frame %d arrived altered", got)
		}
		got++
	})
	send := func() {
		if err := a.Transmit(frame); err != nil {
			t.Fatal(err)
		}
		s.Run(0)
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 1 {
		t.Errorf("Transmit to Handler allocates %.1f/frame, want 1", allocs)
	}
	if got != 8+201 {
		t.Fatalf("handler saw %d frames, want %d", got, 8+201)
	}
}

// TestBroadcastAllocatesOneBufferPerReceiver: a broadcast to k
// receivers costs k buffers — the last receiver takes the wire's copy
// and each of the other k-1 gets its own.
func TestBroadcastAllocatesOneBufferPerReceiver(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	for _, k := range []int{1, 2, 5} {
		s, net := newNet(t, Ether10Mb)
		a := net.Attach(s.NewHost("a"), 1)
		got := 0
		for i := 0; i < k; i++ {
			net.Attach(s.NewHost("b"), Addr(2+i)).Handler = perFrame(func([]byte) { got++ })
		}
		frame := Ether10Mb.Encode(Broadcast10Mb, 1, EtherTypeARP, make([]byte, 46))
		send := func() {
			if err := a.Transmit(frame); err != nil {
				t.Fatal(err)
			}
			s.Run(0)
		}
		for i := 0; i < 8; i++ {
			send()
		}
		if allocs := testing.AllocsPerRun(200, send); allocs != float64(k) {
			t.Errorf("broadcast to %d receivers allocates %.1f/frame, want %d", k, allocs, k)
		}
		if got != k*(8+201) {
			t.Fatalf("%d receivers saw %d frames, want %d", k, got, k*(8+201))
		}
	}
}

type dupAll struct{}

func (dupAll) Frame(uint64, []byte) Verdict {
	v := NoFault
	v.Dup = true
	return v
}

// TestDuplicatedFrameAllocations: a duplicated unicast frame costs two
// buffers — its first delivery copies, the duplicate takes the wire's
// copy — plus the one closure that carries the job to the duplicate's
// delivery.
func TestDuplicatedFrameAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	s, net := newNet(t, Ether10Mb)
	net.SetInjector(dupAll{})
	a := net.Attach(s.NewHost("a"), 1)
	b := net.Attach(s.NewHost("b"), 2)
	got := 0
	b.Handler = perFrame(func([]byte) { got++ })
	frame := Ether10Mb.Encode(2, 1, EtherTypePup, make([]byte, 100))
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
		t.Errorf("duplicated frame allocates %.1f, want 3 (two buffers and the duplicate's closure)", allocs)
	}
	if got != 2*(8+201) {
		t.Fatalf("handler saw %d frames, want %d", got, 2*(8+201))
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
	b.Handler = perFrame(func(f []byte) { got = append(got, f[len(f)-1]) })
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
