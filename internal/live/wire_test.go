package live

// The wire's contract, tested at its two ends: whatever frames Send
// accepts come out of the receive loop whole, in order and counted,
// however the group-commit writer happened to batch them.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ethersim"
)

// collector is a wire handler that keeps a private copy of every frame.
type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) handle(frame []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), frame...))
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.frames...)
}

// wirePair starts a wire feeding a collector and dials one sender to
// it; both are closed when the test ends.
func wirePair(t *testing.T) (*Wire, *collector, *Sender) {
	t.Helper()
	c := &collector{}
	w, err := ListenWire("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(w.Close)
	s := dial(t, w)
	return w, c, s
}

func dial(t *testing.T, w *Wire) *Sender {
	t.Helper()
	s, err := DialWire(w.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// awaitFrames waits until the handler has seen n frames, failing the
// test after a generous deadline.
func awaitFrames(t *testing.T, c *collector, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("handler saw %d of %d frames", c.count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// seqFrame is a size-byte frame whose bytes are derived from seq, so a
// reordered, truncated or corrupted frame cannot pass for another.
func seqFrame(seq, size int) []byte {
	f := make([]byte, size)
	for i := range f {
		f[i] = byte(seq*7 + i*13 + size)
	}
	if size >= 4 {
		binary.BigEndian.PutUint32(f, uint32(seq))
	}
	return f
}

func TestWireDeliversFramesInOrderAcrossBatches(t *testing.T) {
	w, c, s := wirePair(t)
	largest := ethersim.Ether10Mb.MaxFrame()
	var want [][]byte
	send := func(f []byte) {
		t.Helper()
		if err := s.Send(f); err != nil {
			t.Fatalf("send frame %d: %v", len(want), err)
		}
		want = append(want, f)
	}
	for i := 0; i < 200; i++ { // 1-byte frames, many to a datagram
		send([]byte{byte(i)})
	}
	for i := 0; i < 50; i++ { // largest link frames: a burst past the byte cap
		send(seqFrame(len(want), largest))
	}
	if 50*(largest+recordHeader) <= batchCap {
		t.Fatalf("burst of %d bytes does not exceed the %d-byte cap", 50*largest, batchCap)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < 300; i++ { // mixed sizes, written as they come
		send(seqFrame(len(want), 1+(i*37)%largest))
		if i%100 == 99 { // keep the receive socket buffer from overflowing
			if err := s.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			awaitFrames(t, c, len(want))
		}
	}
	send(seqFrame(len(want), maxWireFrame))
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := s.Sent.Load(); got != uint64(len(want)) {
		t.Fatalf("Sent %d after Flush, want %d", got, len(want))
	}
	awaitFrames(t, c, len(want))
	got := c.snapshot()
	if len(got) != len(want) {
		t.Fatalf("handler saw %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d: got %d bytes, want %d bytes (reordered or altered)", i, len(got[i]), len(want[i]))
		}
	}
	st := w.Stats()
	if st.Malformed != 0 || st.Datagrams == 0 || st.Datagrams > st.Received {
		t.Errorf("stats %+v: want no malformed datagrams and 1..%d datagrams", st, st.Received)
	}
	var bytesWant uint64
	for _, f := range want {
		bytesWant += uint64(len(f))
	}
	if st.RxBytes != bytesWant {
		t.Errorf("RxBytes %d, want %d frame bytes", st.RxBytes, bytesWant)
	}
}

// Sent counts exactly the frames the handler sees once Flush returns.
func TestSenderFlushSettlesSent(t *testing.T) {
	_, c, s := wirePair(t)
	for round := 1; round <= 20; round++ {
		for i := 0; i < round*3; i++ {
			if err := s.Send(seqFrame(i, 60)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		sent := s.Sent.Load()
		awaitFrames(t, c, int(sent))
		if got := c.count(); uint64(got) != sent {
			t.Fatalf("round %d: handler saw %d frames, Sent says %d", round, got, sent)
		}
	}
}

// Close writes out every frame Send accepted before releasing the
// socket, and Send refuses frames afterwards.
func TestSenderCloseDeliversAccepted(t *testing.T) {
	_, c, s := wirePair(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Send(seqFrame(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if got := s.Sent.Load(); got != n {
		t.Fatalf("Sent %d after Close, want %d", got, n)
	}
	awaitFrames(t, c, n)
	for i, f := range c.snapshot() {
		if !bytes.Equal(f, seqFrame(i, 100)) {
			t.Fatalf("frame %d altered or reordered", i)
		}
	}
	if err := s.Send([]byte{1}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Send after Close: %v, want net.ErrClosed", err)
	}
	if err := s.Flush(); err != nil {
		t.Errorf("Flush after Close: %v", err)
	}
}

// A write the kernel refuses moves its frames from Sent to SendErrs and
// fails the next Send (or Flush), exactly once.
func TestSenderWriteErrorSurfaces(t *testing.T) {
	_, _, s := wirePair(t)
	s.conn.Close() // every write from here on fails

	if err := s.Send(seqFrame(0, 64)); err != nil {
		t.Fatalf("first Send: %v (the write has not happened yet)", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.SendErrs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the failed write was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Send(seqFrame(1, 64)); err == nil {
		t.Fatal("Send after a failed write returned nil")
	}
	if err := s.Send(seqFrame(2, 64)); err != nil {
		t.Fatalf("the failure was reported twice: %v", err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush after a second failed write returned nil")
	}
	if sent, errs := s.Sent.Load(), s.SendErrs.Load(); sent != 0 || errs != 2 {
		t.Errorf("Sent %d, SendErrs %d; want 0 and the 2 accepted frames", sent, errs)
	}
}

// Two senders on one wire: each one's frames arrive complete and in its
// own order, because datagrams interleave whole.
func TestWireTwoSendersInterleaveDatagrams(t *testing.T) {
	c := &collector{}
	w, err := ListenWire("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	const n = 2000
	senders := []*Sender{dial(t, w), dial(t, w)}
	var wg sync.WaitGroup
	for id, s := range senders {
		wg.Add(1)
		go func(id int, s *Sender) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				f := seqFrame(i, 40+id*23)
				f[4] = byte(id)
				if err := s.Send(f); err != nil {
					t.Errorf("sender %d: %v", id, err)
					return
				}
				if i%64 == 63 {
					time.Sleep(200 * time.Microsecond)
				}
			}
			if err := s.Flush(); err != nil {
				t.Errorf("sender %d flush: %v", id, err)
			}
		}(id, s)
	}
	wg.Wait()
	awaitFrames(t, c, 2*n)
	next := []int{0, 0}
	for _, f := range c.snapshot() {
		id := int(f[4])
		want := seqFrame(next[id], 40+id*23)
		want[4] = byte(id)
		if !bytes.Equal(f, want) {
			t.Fatalf("sender %d: frame %d altered or out of order", id, next[id])
		}
		next[id]++
	}
	if next[0] != n || next[1] != n {
		t.Fatalf("frames per sender %v, want %d each", next, n)
	}
	if st := w.Stats(); st.Malformed != 0 {
		t.Errorf("%d malformed datagrams", st.Malformed)
	}
}

// Frames the format cannot carry are refused outright, never truncated
// and never counted.
func TestSenderRefusesUnsendableFrames(t *testing.T) {
	_, c, s := wirePair(t)
	for _, size := range []int{0, maxWireFrame + 1, maxDatagram, 1 << 16} {
		if err := s.Send(make([]byte, size)); err == nil {
			t.Errorf("Send of a %d-byte frame was accepted", size)
		}
	}
	big := seqFrame(7, maxWireFrame)
	if err := s.Send(big); err != nil {
		t.Fatalf("Send of a %d-byte frame: %v", maxWireFrame, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	awaitFrames(t, c, 1)
	if got := c.snapshot(); len(got) != 1 || !bytes.Equal(got[0], big) {
		t.Fatalf("largest frame did not arrive intact")
	}
	if s.Sent.Load() != 1 || s.SendErrs.Load() != 0 {
		t.Errorf("Sent %d, SendErrs %d; want 1, 0", s.Sent.Load(), s.SendErrs.Load())
	}
}

// A foreign datagram whose records do not tile it is refused whole.
func TestWireRefusesMalformedDatagrams(t *testing.T) {
	w, c, _ := wirePair(t)
	raw, err := net.DialUDP("udp", nil, w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	good := appendRecord(nil, []byte("ok"))
	bad := [][]byte{
		{},           // no records
		{0x00},       // truncated header
		{0x00, 0x00}, // zero length
		append(append([]byte(nil), good...), 0x00, 0x05, 'a'), // length past the end
		append(append([]byte(nil), good...), 0x00),            // trailing half header
	}
	for _, dg := range bad {
		if _, err := raw.Write(dg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(good); err != nil {
		t.Fatal(err)
	}
	awaitFrames(t, c, 1)
	deadline := time.Now().Add(10 * time.Second)
	for w.Stats().Malformed < uint64(len(bad)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := w.Stats()
	if st.Malformed != uint64(len(bad)) || st.Datagrams != 1 || st.Received != 1 {
		t.Errorf("stats %+v: want %d malformed, 1 datagram, 1 frame", st, len(bad))
	}
	if got := c.snapshot(); len(got) != 1 || string(got[0]) != "ok" {
		t.Errorf("handler saw %q, want only the well-formed frame", got)
	}
}

func FuzzWireDatagram(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 'x'}, []byte("a\x00bc"))
	f.Add([]byte{0x00, 0x02, 'a', 'b', 0x00, 0x01, 'c'}, []byte{})
	f.Add([]byte{0x00, 0x00}, []byte("\x00\x00"))
	f.Add([]byte{0x00, 0x05, 'a'}, []byte("frame"))
	f.Add([]byte{}, []byte("x"))
	f.Fuzz(func(t *testing.T, dg, list []byte) {
		// Decode: all records or none, each inside the datagram.
		frames, ok := splitDatagram(dg, nil)
		if !ok {
			if len(frames) != 0 {
				t.Fatalf("malformed datagram still yielded %d frames", len(frames))
			}
		} else {
			var re []byte
			for _, fr := range frames {
				if len(fr) == 0 || cap(fr) != len(fr) {
					t.Fatalf("frame of len %d cap %d", len(fr), cap(fr))
				}
				re = appendRecord(re, fr)
			}
			if !bytes.Equal(re, dg) {
				t.Fatalf("%d frames do not re-encode to the %d-byte datagram", len(frames), len(dg))
			}
		}

		// Encode: a frame list (list split at zero bytes) decodes back
		// to itself.
		var want [][]byte
		for _, fr := range bytes.Split(list, []byte{0}) {
			if len(fr) > 0 {
				want = append(want, fr)
			}
		}
		var enc []byte
		for _, fr := range want {
			enc = appendRecord(enc, fr)
		}
		got, ok := splitDatagram(enc, nil)
		if ok != (len(want) > 0) || len(got) != len(want) {
			t.Fatalf("encoded %d frames, decoded %d (ok %v)", len(want), len(got), ok)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: decoded %q, encoded %q", i, got[i], want[i])
			}
		}
	})
}
