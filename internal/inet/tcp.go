package inet

import (
	"encoding/binary"
	"errors"
	"io"
	"time"

	"repro/internal/sim"
)

// TCP in this stack is a compact but real byte-stream protocol:
// three-way handshake, cumulative acknowledgements, go-back-N
// retransmission, FIN teardown, and full data checksumming ("note that
// TCP checksums all data", §6.3).  Segments default to 1024 data
// bytes, making a 10 Mb Ethernet frame of 1078 bytes — the size §6.4
// reports for 4.3BSD TCP — and can be forced smaller for the table 6-6
// packet-size correction experiment.

// DefaultMSS reproduces 4.3BSD's 1078-byte TCP packets:
// 1024 + 20 (TCP) + 20 (IP) + 14 (Ethernet) = 1078.
const DefaultMSS = 1024

// TCPConfig tunes a connection.
type TCPConfig struct {
	MSS    int           // data bytes per segment
	Window int           // segments in flight
	RTO    time.Duration // retransmission timeout
}

// DefaultTCPConfig returns the configuration used by benchmarks.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{MSS: DefaultMSS, Window: 4, RTO: 100 * time.Millisecond}
}

func (c *TCPConfig) sanitize() {
	if c.MSS <= 0 {
		c.MSS = DefaultMSS
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.RTO <= 0 {
		c.RTO = 100 * time.Millisecond
	}
}

// TCP flag bits.
const (
	flagFIN = 0x01
	flagSYN = 0x02
	flagRST = 0x04
	flagACK = 0x10
)

// Connection states.
const (
	stClosed = iota
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait // our FIN sent, awaiting its ack
	stDone
)

type tcpKey struct {
	remote     Addr
	remotePort uint16
	localPort  uint16
}

// TCPConn is one kernel-resident TCP connection.
type TCPConn struct {
	stack *Stack
	key   tcpKey
	cfg   TCPConfig
	state int

	// Send side.  sndBuf holds bytes from seq sndBase on (acked
	// bytes are trimmed); sndNxt is the next seq to transmit.
	sndBuf   []byte
	sndBase  uint32
	sndNxt   uint32
	finSeq   uint32 // seq consumed by our FIN, valid in stFinWait
	closing  bool
	rtxArmed bool
	rtxGen   int
	sndLimit int
	timeout  time.Duration

	// Receive side.
	rcvBuf  []byte
	rcvNxt  uint32
	peerFIN bool

	readers, writers, waiters *sim.WaitQ

	// lst points back to the listener whose Accept should be
	// notified when the handshake completes (server side only).
	lst *TCPListener

	// Retransmits counts RTO firings.
	Retransmits uint64
}

// TCPListener accepts incoming connections on a port.
type TCPListener struct {
	stack   *Stack
	port    uint16
	cfg     TCPConfig
	backlog []*TCPConn
	accepts *sim.WaitQ
}

// Errors from TCP operations.
var (
	ErrConnRefused = errors.New("inet: connection refused or timed out")
	ErrConnClosed  = errors.New("inet: connection closed")
)

// TCPListen binds a listening port.  Process context.
func (st *Stack) TCPListen(p *sim.Proc, port uint16, cfg TCPConfig) (*TCPListener, error) {
	p.Syscall("tcp")
	cfg.sanitize()
	if _, busy := st.lst[port]; busy {
		return nil, ErrPortInUse
	}
	l := &TCPListener{stack: st, port: port, cfg: cfg, accepts: st.host.Sim().NewWaitQ()}
	st.lst[port] = l
	return l, nil
}

// Accept blocks until a connection completes the handshake.
func (l *TCPListener) Accept(p *sim.Proc, timeout time.Duration) (*TCPConn, error) {
	p.Syscall("tcp")
	for len(l.backlog) == 0 {
		if !p.Wait(l.accepts, timeout) {
			return nil, ErrTimeout
		}
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// TCPDial opens a connection; it blocks until established or refused.
func (st *Stack) TCPDial(p *sim.Proc, dst Addr, dstPort, localPort uint16, cfg TCPConfig) (*TCPConn, error) {
	p.Syscall("tcp")
	cfg.sanitize()
	c := st.newConn(tcpKey{remote: dst, remotePort: dstPort, localPort: localPort}, cfg)
	c.state = stSynSent
	c.sendSeg(flagSYN, 0, nil) // the SYN occupies sequence 0; data starts at 1
	c.armRTO()
	for try := 0; c.state != stEstablished; try++ {
		if try > 10 {
			c.state = stDone
			delete(st.tcp, c.key)
			return nil, ErrConnRefused
		}
		p.Wait(c.waiters, cfg.RTO)
	}
	return c, nil
}

func (st *Stack) newConn(key tcpKey, cfg TCPConfig) *TCPConn {
	s := st.host.Sim()
	c := &TCPConn{
		stack: st, key: key, cfg: cfg,
		sndBase: 1, sndNxt: 1, // ISS 0; data starts at 1 after SYN
		sndLimit: 4 * cfg.Window * cfg.MSS,
		readers:  s.NewWaitQ(), writers: s.NewWaitQ(), waiters: s.NewWaitQ(),
	}
	st.tcp[key] = c
	return c
}

// SetTimeout bounds blocking Reads (0 = forever).
func (c *TCPConn) SetTimeout(d time.Duration) { c.timeout = d }

// Write queues data on the connection, blocking while the send buffer
// is full; it returns once the data is accepted by the kernel (not
// necessarily acknowledged), like a 4.3BSD socket write.
func (c *TCPConn) Write(p *sim.Proc, data []byte) error {
	p.Syscall("tcp")
	p.CopyIn("tcp", len(data))
	for len(data) > 0 {
		if c.state >= stFinWait {
			return ErrConnClosed
		}
		room := c.sndLimit - len(c.sndBuf)
		if room <= 0 {
			p.Wait(c.writers, 0)
			continue
		}
		n := room
		if n > len(data) {
			n = len(data)
		}
		c.sndBuf = append(c.sndBuf, data[:n]...)
		data = data[n:]
		c.pump()
	}
	return nil
}

// Read returns up to max buffered bytes, blocking per the read
// timeout; io.EOF reports an orderly remote close.
func (c *TCPConn) Read(p *sim.Proc, max int) ([]byte, error) {
	p.Syscall("tcpread")
	for len(c.rcvBuf) == 0 {
		if c.peerFIN {
			return nil, io.EOF
		}
		if !p.Wait(c.readers, c.timeout) {
			return nil, ErrTimeout
		}
	}
	n := max
	if n <= 0 || n > len(c.rcvBuf) {
		n = len(c.rcvBuf)
	}
	out := append([]byte(nil), c.rcvBuf[:n]...)
	c.rcvBuf = c.rcvBuf[n:]
	p.CopyOut("tcpread", n)
	return out, nil
}

// Close sends FIN once queued data drains and waits for its
// acknowledgement.
func (c *TCPConn) Close(p *sim.Proc) error {
	p.Syscall("tcp")
	c.closing = true
	c.pump()
	for c.state != stDone {
		if !p.Wait(c.waiters, 5*time.Second) {
			break
		}
	}
	delete(c.stack.tcp, c.key)
	return nil
}

// pump transmits whatever the window allows; any context.
func (c *TCPConn) pump() {
	if c.state != stEstablished && c.state != stFinWait {
		return
	}
	wnd := uint32(c.cfg.Window * c.cfg.MSS)
	for {
		offset := c.sndNxt - c.sndBase
		avail := uint32(len(c.sndBuf)) - offset
		if avail == 0 || c.sndNxt-c.sndBase >= wnd {
			break
		}
		n := uint32(c.cfg.MSS)
		if n > avail {
			n = avail
		}
		if c.sndNxt+n > c.sndBase+wnd {
			n = c.sndBase + wnd - c.sndNxt
		}
		if n == 0 {
			break
		}
		c.sendSeg(flagACK, c.sndNxt, c.sndBuf[offset:offset+n])
		c.sndNxt += n
		c.armRTO()
	}
	// All data sent and acknowledged: emit FIN if closing.
	if c.closing && c.state == stEstablished &&
		uint32(len(c.sndBuf)) == 0 && c.sndNxt == c.sndBase {
		c.finSeq = c.sndNxt
		c.sendSeg(flagFIN|flagACK, c.sndNxt, nil)
		c.sndNxt++
		c.state = stFinWait
		c.armRTO()
	}
}

// sendSeg marshals and transmits one segment in kernel context.
func (c *TCPConn) sendSeg(flags uint8, seq uint32, data []byte) {
	seg := make([]byte, TCPHeaderLen+len(data))
	binary.BigEndian.PutUint16(seg[0:], c.key.localPort)
	binary.BigEndian.PutUint16(seg[2:], c.key.remotePort)
	binary.BigEndian.PutUint32(seg[4:], seq)
	binary.BigEndian.PutUint32(seg[8:], c.rcvNxt)
	seg[12] = (TCPHeaderLen / 4) << 4
	seg[13] = flags
	binary.BigEndian.PutUint16(seg[14:], 0xFFFF) // advertised window (unused)
	copy(seg[TCPHeaderLen:], data)
	binary.BigEndian.PutUint16(seg[16:], pseudoChecksum(c.stack.addr, c.key.remote, ProtoTCP, seg))
	c.stack.sendIP(IPHdr{Proto: ProtoTCP, Dst: c.key.remote}, seg, len(seg))
}

// armRTO starts the retransmission timer unless one is already in
// flight.  Invariant: exactly one timer is pending iff rtxArmed, and
// only rtoFire clears it — acks restart the clock by bumping rtxGen,
// never by disarming, so the timer can't be lost or duplicated.
func (c *TCPConn) armRTO() {
	if c.rtxArmed {
		return
	}
	c.rtxArmed = true
	gen := c.rtxGen
	c.stack.host.Sim().After(c.cfg.RTO, func() { c.rtoFire(gen) })
}

func (c *TCPConn) rtoFire(gen int) {
	c.rtxArmed = false
	if c.state == stDone {
		return
	}
	outstanding := c.sndNxt != c.sndBase || c.state == stSynSent ||
		(c.state == stFinWait)
	if !outstanding {
		return
	}
	if gen != c.rtxGen {
		// An ack (or the handshake) restarted the clock while this
		// timer was in flight.  Unacknowledged data remains, so the
		// timer must live on — dropping it here would leave a stalled
		// window with no retransmission path at all.
		c.armRTO()
		return
	}
	c.Retransmits++
	switch c.state {
	case stSynSent:
		c.sendSeg(flagSYN, 0, nil)
	case stSynRcvd:
		c.sendSeg(flagSYN|flagACK, 0, nil)
	case stFinWait:
		// Resend pending data then FIN (go-back-N).
		c.goBackN()
		c.sendSeg(flagFIN|flagACK, c.finSeq, nil)
	default:
		c.goBackN()
	}
	c.armRTO()
}

func (c *TCPConn) goBackN() {
	offset := uint32(0)
	end := c.sndNxt - c.sndBase
	if c.state == stFinWait {
		end = c.finSeq - c.sndBase
	}
	for offset < end {
		n := uint32(c.cfg.MSS)
		if offset+n > end {
			n = end - offset
		}
		c.sendSeg(flagACK, c.sndBase+offset, c.sndBuf[offset:offset+n])
		offset += n
	}
}

// inputTCP runs in kernel context after IP input cost was charged.
func (st *Stack) inputTCP(h IPHdr, seg []byte) {
	costs := st.host.Costs()
	if len(seg) < TCPHeaderLen {
		return
	}
	cost := costs.TransportInput + costs.Checksum(len(seg))
	st.host.RunKernel("tcp", cost, func() {
		if pseudoChecksum(h.Src, h.Dst, ProtoTCP, seg) != 0 {
			return
		}
		srcPort := binary.BigEndian.Uint16(seg[0:])
		dstPort := binary.BigEndian.Uint16(seg[2:])
		seq := binary.BigEndian.Uint32(seg[4:])
		ack := binary.BigEndian.Uint32(seg[8:])
		dataOff := int(seg[12]>>4) * 4
		flags := seg[13]
		if dataOff < TCPHeaderLen || dataOff > len(seg) {
			return
		}
		data := seg[dataOff:]
		key := tcpKey{remote: h.Src, remotePort: srcPort, localPort: dstPort}

		c := st.tcp[key]
		if c == nil {
			// New connection?
			if flags&flagSYN != 0 && flags&flagACK == 0 {
				if l := st.lst[dstPort]; l != nil {
					c = st.newConn(key, l.cfg)
					c.state = stSynRcvd
					c.rcvNxt = seq + 1
					c.lst = l
					c.sendSeg(flagSYN|flagACK, 0, nil)
					c.armRTO()
				}
			}
			return
		}
		c.handle(flags, seq, ack, data)
	})
}

func (c *TCPConn) handle(flags uint8, seq, ack uint32, data []byte) {
	if flags&flagRST != 0 {
		c.state = stDone
		c.peerFIN = true
		c.wakeAll()
		return
	}

	switch c.state {
	case stSynSent:
		if flags&(flagSYN|flagACK) == flagSYN|flagACK && ack == c.sndNxt {
			c.rcvNxt = seq + 1
			c.state = stEstablished
			c.rtxGen++
			c.sendSeg(flagACK, c.sndNxt, nil)
			c.waiters.WakeAll(c.stack.host)
		}
		return
	case stSynRcvd:
		if flags&flagACK != 0 && ack == c.sndNxt {
			c.state = stEstablished
			c.rtxGen++
			if c.lst != nil {
				c.lst.backlog = append(c.lst.backlog, c)
				c.lst.accepts.WakeOne(c.stack.host)
			}
		}
		// Fall through: the ACK may carry data.
	}

	// Acknowledgement processing.
	if flags&flagACK != 0 {
		limit := c.sndNxt
		if ack > c.sndBase && ack <= limit {
			advance := ack - c.sndBase
			dataBytes := advance
			if c.state == stFinWait && ack == c.finSeq+1 {
				dataBytes-- // the FIN's sequence slot
			}
			if int(dataBytes) <= len(c.sndBuf) {
				c.sndBuf = c.sndBuf[dataBytes:]
			} else {
				c.sndBuf = nil
			}
			c.sndBase = ack
			c.rtxGen++ // restart timing from the new base
			if c.sndNxt != c.sndBase {
				c.armRTO()
			}
			c.writers.WakeAll(c.stack.host)
			if c.state == stFinWait && ack == c.finSeq+1 {
				c.state = stDone
				c.wakeAll()
				return
			}
			c.pump()
		}
	}

	// In-order data.
	if len(data) > 0 {
		if seq == c.rcvNxt {
			c.rcvBuf = append(c.rcvBuf, data...)
			c.rcvNxt += uint32(len(data))
			c.readers.WakeAll(c.stack.host)
		}
		// Ack whatever we have (cumulative; duplicates re-acked).
		c.sendSeg(flagACK, c.sndNxt, nil)
	}

	// Remote close.
	if flags&flagFIN != 0 && seq == c.rcvNxt {
		c.rcvNxt++
		c.peerFIN = true
		c.sendSeg(flagACK, c.sndNxt, nil)
		c.readers.WakeAll(c.stack.host)
	}
}

func (c *TCPConn) wakeAll() {
	c.readers.WakeAll(c.stack.host)
	c.writers.WakeAll(c.stack.host)
	c.waiters.WakeAll(c.stack.host)
}
