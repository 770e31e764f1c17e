package live

// The loopback-UDP wire: live mode's stand-in for ethersim's shared
// medium.  A datagram carries a batch of data-link frames, each one
// verbatim — the same bytes ethersim would have put on the virtual
// wire, so the identical filter programs match on both.  UDP loopback
// gives the properties the simulated medium models for free: message
// boundaries, unreliable delivery under overload (socket-buffer
// overflow plays the NIC input-queue drop), and no connection state.
//
// Datagram format: one or more records, each a big-endian uint16
// frame length (never zero) followed by that many frame bytes.  A lone
// frame is a batch of one; there is no other format.  A datagram whose
// records do not tile it exactly is malformed and delivers nothing.
//
// Batches form by group commit: Send appends the frame to the pending
// batch and returns, and the Sender's one writer goroutine writes
// whatever has accumulated as one datagram.  While a write is in
// flight the next batch fills behind it; an idle sender writes each
// frame alone, so batching adds no wait, only a goroutine wake.

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// maxDatagram is the receive buffer: the largest UDP payload, so a
// datagram from any sender arrives whole (and is judged whole).
const maxDatagram = 64 * 1024

// batchCap bounds one datagram the Sender builds, records included.
// It is the only batching knob, and it also bounds what a queued
// frame can pin (see rxLoop).  Both simulated link types' frames are
// far below it.
const batchCap = 32 * 1024

// recordHeader is the length prefix in front of every frame.
const recordHeader = 2

// maxWireFrame is the largest frame Send accepts.
const maxWireFrame = batchCap - recordHeader

// rxBuffer is the receive-side socket buffer request.  Loopback load
// tests push tens of thousands of datagrams through one socket; a
// deep buffer keeps the kernel from shedding bursts the reader would
// have drained microseconds later.
const rxBuffer = 4 << 20

// Wire is one end of the loopback-UDP medium: a bound socket whose
// receive loop hands every arriving frame to the device.
type Wire struct {
	conn    *net.UDPConn
	handler func(frame []byte)

	received  atomic.Uint64 // frames handed to the handler
	rxBytes   atomic.Uint64 // their bytes, record headers excluded
	datagrams atomic.Uint64 // well-formed datagrams
	malformed atomic.Uint64 // datagrams refused whole

	closeOnce sync.Once
	done      chan struct{}
}

// WireStats is the wire's receive accounting.  Received/Datagrams is
// the mean batch size.
type WireStats struct {
	Received  uint64 `json:"received"`
	RxBytes   uint64 `json:"rx_bytes"`
	Datagrams uint64 `json:"datagrams"`
	Malformed uint64 `json:"malformed"`
}

// ListenWire binds a UDP socket on addr (e.g. "127.0.0.1:0") and
// starts the receive loop, which passes every frame of every arriving
// datagram to handler in order.  The handler runs on the receive
// goroutine; Device.Input serializes internally.
func ListenWire(addr string, handler func(frame []byte)) (*Wire, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	// Best effort: some kernels clamp the request, which only means
	// earlier overload drops, not incorrectness.
	_ = conn.SetReadBuffer(rxBuffer)
	w := &Wire{conn: conn, handler: handler, done: make(chan struct{})}
	go w.rxLoop()
	return w, nil
}

// Addr returns the wire's bound UDP address.
func (w *Wire) Addr() *net.UDPAddr { return w.conn.LocalAddr().(*net.UDPAddr) }

// Stats returns the wire's receive accounting.
func (w *Wire) Stats() WireStats {
	return WireStats{
		Received:  w.received.Load(),
		RxBytes:   w.rxBytes.Load(),
		Datagrams: w.datagrams.Load(),
		Malformed: w.malformed.Load(),
	}
}

// Close shuts the socket down; the receive loop exits.
func (w *Wire) Close() {
	w.closeOnce.Do(func() {
		w.conn.Close()
		<-w.done
	})
}

// rxLoop drains the socket until Close.  Each datagram is copied once,
// out of the reusable read buffer into one of exactly its size, and
// its frames cross into the device as cap-limited sub-slices of that
// copy.  Ownership: a frame the device retains on a port queue keeps
// its whole datagram alive, so one queued frame pins at most batchCap
// bytes from a Sender (maxDatagram from a foreign one) — bounded per
// frame, unlike a shared arena, where one frame could pin the arena.
func (w *Wire) rxLoop() {
	defer close(w.done)
	buf := make([]byte, maxDatagram)
	var frames [][]byte
	for {
		n, _, err := w.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed (or fatally broken) socket ends the wire
		}
		dg := make([]byte, n)
		copy(dg, buf[:n])
		var ok bool
		if frames, ok = splitDatagram(dg, frames[:0]); !ok {
			w.malformed.Add(1)
			continue
		}
		w.datagrams.Add(1)
		w.received.Add(uint64(len(frames)))
		w.rxBytes.Add(uint64(n - recordHeader*len(frames)))
		for _, f := range frames {
			w.handler(f)
		}
	}
}

// splitDatagram appends dg's frames to frames as sub-slices capped at
// their own length, so a handler that appends to one cannot overwrite
// the next.  Every record is checked before any is returned: a
// truncated header, a zero length, a length past the end or an empty
// datagram makes it malformed, and frames comes back unextended.
func splitDatagram(dg []byte, frames [][]byte) ([][]byte, bool) {
	base := len(frames)
	for off := 0; off < len(dg); {
		if len(dg)-off < recordHeader {
			return frames[:base], false
		}
		l := int(binary.BigEndian.Uint16(dg[off:]))
		off += recordHeader
		if l == 0 || l > len(dg)-off {
			return frames[:base], false
		}
		frames = append(frames, dg[off:off+l:off+l])
		off += l
	}
	return frames, len(frames) > base
}

// appendRecord appends frame to a datagram under construction.
func appendRecord(dg, frame []byte) []byte {
	dg = binary.BigEndian.AppendUint16(dg, uint16(len(frame)))
	return append(dg, frame...)
}

// Sender is the transmit end: a connected UDP socket and the writer
// goroutine that group-commits frames into datagrams.
//
// Sent counts frames from the moment their datagram's write begins,
// so it already includes any frame a receiver can have seen; a failed
// write moves its frames from Sent to SendErrs.  Frames Send accepted
// but not yet written are in neither: Flush (or Close) waits them out.
type Sender struct {
	conn *net.UDPConn

	// Sent counts frames written; SendErrs counts frames whose write
	// the kernel refused (ENOBUFS under extreme overload).
	Sent     atomic.Uint64
	SendErrs atomic.Uint64

	mu      sync.Mutex
	work    sync.Cond // writer: a batch is pending, or closing
	settled sync.Cond // Send: room in the batch; Flush: writes done
	pending []byte    // the batch being filled
	spare   []byte    // the previous batch's buffer, reused
	npend   int       // frames in pending
	writing bool      // a datagram write is in flight
	closing bool
	err     error // first failed write not yet reported
	done    chan struct{}

	closeOnce sync.Once
}

// DialWire connects a sender to a listening wire.
func DialWire(addr string) (*Sender, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	_ = conn.SetWriteBuffer(rxBuffer)
	s := &Sender{conn: conn, done: make(chan struct{})}
	s.work.L = &s.mu
	s.settled.L = &s.mu
	go s.writer()
	return s, nil
}

// Send queues a copy of frame for the next datagram.  It blocks only
// while the pending batch is full, and never drops: it either accepts
// the frame or returns an error — a refused size, a closed Sender, or
// the first write failure since the last Send or Flush reported one.
func (s *Sender) Send(frame []byte) error {
	if len(frame) == 0 || len(frame) > maxWireFrame {
		return fmt.Errorf("wire: %d-byte frame, want 1..%d bytes", len(frame), maxWireFrame)
	}
	s.mu.Lock()
	for len(s.pending)+recordHeader+len(frame) > batchCap && s.err == nil && !s.closing {
		s.settled.Wait()
	}
	if err := s.takeErr(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.pending = appendRecord(s.pending, frame)
	s.npend++
	s.work.Signal()
	s.mu.Unlock()
	return nil
}

// Flush waits until every frame Send has accepted is written (or its
// write failed), so Sent and SendErrs are final for them, and returns
// the first unreported write failure.
func (s *Sender) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) > 0 || s.writing {
		s.settled.Wait()
	}
	err := s.err
	s.err = nil
	return err
}

// takeErr reports the pending write failure, or net.ErrClosed after
// Close.  Called with mu held.
func (s *Sender) takeErr() error {
	if err := s.err; err != nil {
		s.err = nil
		return err
	}
	if s.closing {
		return net.ErrClosed
	}
	return nil
}

// writer writes each accumulated batch as one datagram until Close
// has been asked for and nothing is pending.
func (s *Sender) writer() {
	defer close(s.done)
	s.mu.Lock()
	for {
		for len(s.pending) == 0 && !s.closing {
			s.work.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		dg, n := s.pending, s.npend
		s.pending, s.npend = s.spare, 0
		s.writing = true
		s.Sent.Add(uint64(n)) // before the receiver can see any of it
		s.settled.Broadcast() // the batch has room again
		s.mu.Unlock()

		_, err := s.conn.Write(dg)

		s.mu.Lock()
		if err != nil {
			s.Sent.Add(^uint64(n - 1))
			s.SendErrs.Add(uint64(n))
			if s.err == nil {
				s.err = err
			}
		}
		s.spare = dg[:0]
		s.writing = false
		s.settled.Broadcast()
	}
}

// Close writes every accepted frame, then releases the socket.  Send
// fails with net.ErrClosed afterwards.
func (s *Sender) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		s.work.Signal()
		s.settled.Broadcast()
		s.mu.Unlock()
		<-s.done
		s.conn.Close()
	})
}
