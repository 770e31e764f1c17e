// Package ethersim simulates the two data links the paper measures
// on: the 3 Mbit/s Experimental Ethernet (4-byte data-link header, as
// in figure 3-7) and the 10 Mbit/s standard Ethernet (14-byte header).
//
// A Network is a shared half-duplex medium: one frame occupies the
// wire at a time for len*8/bandwidth of virtual time and is then
// delivered to every other attached interface; each interface accepts
// frames addressed to it or to the broadcast address (or everything,
// in promiscuous mode) and hands them to its host's kernel after the
// driver's receive cost.  Interfaces drop frames when their input
// queue overflows, which the packet filter reports to users ("a count
// of the number of packets lost due to queue overflows in the network
// interface and in the kernel", §3.3).
package ethersim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/trace"
)

// LinkType selects the simulated data link.
type LinkType int

const (
	// Ether3Mb is the 3 Mbit/s Experimental Ethernet of Metcalfe &
	// Boggs: one-byte host addresses, a two-word header.
	Ether3Mb LinkType = iota
	// Ether10Mb is the standard 10 Mbit/s Ethernet: six-byte
	// addresses, a 14-byte header.
	Ether10Mb
)

// Addr is a data-link address, right-aligned in a uint64 (one
// significant byte on the 3 Mb net, six on the 10 Mb net).
type Addr uint64

// Broadcast addresses for each link type.
const (
	Broadcast3Mb  Addr = 0xFF
	Broadcast10Mb Addr = 0xFFFF_FFFF_FFFF
)

// Well-known Ethernet type codes used in this repository.  Pup3Mb is
// the 3 Mb code from the paper's listings; the others are the standard
// 10 Mb assignments (VMTP never had one — the paper's implementations
// predate the IP encapsulation — so we give it a private code).
const (
	EtherTypePup3Mb uint16 = 2
	EtherTypePup    uint16 = 0x0200
	EtherTypeIP     uint16 = 0x0800
	EtherTypeARP    uint16 = 0x0806
	EtherTypeRARP   uint16 = 0x8035
	EtherTypeVMTP   uint16 = 0x0700
)

// String returns "3Mb" or "10Mb".
func (l LinkType) String() string {
	if l == Ether3Mb {
		return "3Mb"
	}
	return "10Mb"
}

// HeaderLen returns the data-link header length in bytes (4 or 14).
func (l LinkType) HeaderLen() int {
	if l == Ether3Mb {
		return 4
	}
	return 14
}

// HeaderWords returns the header length in 16-bit filter words.
func (l LinkType) HeaderWords() int { return l.HeaderLen() / 2 }

// AddrLen returns the address length in bytes.
func (l LinkType) AddrLen() int {
	if l == Ether3Mb {
		return 1
	}
	return 6
}

// MaxFrame returns the maximum frame size in bytes including the
// header.
func (l LinkType) MaxFrame() int {
	if l == Ether3Mb {
		return 600
	}
	return 1514
}

// Bandwidth returns the link speed in bits per second.
func (l LinkType) Bandwidth() int64 {
	if l == Ether3Mb {
		return 3_000_000
	}
	return 10_000_000
}

// BroadcastAddr returns the all-stations address for the link.
func (l LinkType) BroadcastAddr() Addr {
	if l == Ether3Mb {
		return Broadcast3Mb
	}
	return Broadcast10Mb
}

// TypeWord returns the index of the 16-bit packet word holding the
// Ethernet type field (1 on the 3 Mb net, 6 on the 10 Mb net) — the
// word every demultiplexing filter tests first.
func (l LinkType) TypeWord() int {
	if l == Ether3Mb {
		return 1
	}
	return 6
}

// Encode builds a complete frame: data-link header plus payload.
func (l LinkType) Encode(dst, src Addr, etherType uint16, payload []byte) []byte {
	frame := make([]byte, l.HeaderLen()+len(payload))
	switch l {
	case Ether3Mb:
		frame[0] = byte(dst)
		frame[1] = byte(src)
		binary.BigEndian.PutUint16(frame[2:], etherType)
	default:
		putAddr6(frame[0:6], dst)
		putAddr6(frame[6:12], src)
		binary.BigEndian.PutUint16(frame[12:], etherType)
	}
	copy(frame[l.HeaderLen():], payload)
	return frame
}

// ErrTruncated reports a frame shorter than its data-link header.
var ErrTruncated = errors.New("ethersim: truncated frame")

// Decode splits a frame into its header fields and payload.  The
// payload aliases the frame.
func (l LinkType) Decode(frame []byte) (dst, src Addr, etherType uint16, payload []byte, err error) {
	if len(frame) < l.HeaderLen() {
		return 0, 0, 0, nil, ErrTruncated
	}
	switch l {
	case Ether3Mb:
		dst, src = Addr(frame[0]), Addr(frame[1])
		etherType = binary.BigEndian.Uint16(frame[2:])
	default:
		dst, src = addr6(frame[0:6]), addr6(frame[6:12])
		etherType = binary.BigEndian.Uint16(frame[12:])
	}
	return dst, src, etherType, frame[l.HeaderLen():], nil
}

func putAddr6(b []byte, a Addr) {
	b[0] = byte(a >> 40)
	b[1] = byte(a >> 32)
	b[2] = byte(a >> 24)
	b[3] = byte(a >> 16)
	b[4] = byte(a >> 8)
	b[5] = byte(a)
}

func addr6(b []byte) Addr {
	return Addr(b[0])<<40 | Addr(b[1])<<32 | Addr(b[2])<<24 |
		Addr(b[3])<<16 | Addr(b[4])<<8 | Addr(b[5])
}

// Network is one shared-medium Ethernet segment.
type Network struct {
	s    *sim.Sim
	link LinkType
	nics []*NIC

	// wireBusy admits one frame to the medium at a time, so the job
	// on the wire, the injector's verdict on it and the span of the
	// duplicate it ordered live here, and a single pre-bound callback
	// (wireDoneFn) completes every transmission.  txq pops from
	// txHead instead of reslicing, which reuses its backing array.
	// Jobs ride by value; only a delayed or duplicated delivery's
	// closure captures one.
	wireBusy   bool
	txq        []txJob
	txHead     int
	onWire     txJob
	verdict    Verdict
	dupSpan    uint64
	wireDoneFn func()

	// FramesOnWire counts every frame that made it onto the medium.
	FramesOnWire uint64

	// DropEvery, when non-zero, silently discards every Nth frame
	// after transmission — deterministic loss injection for
	// exercising protocol retransmission paths ("Transmission is
	// unreliable if the data link is unreliable", §3).  It is a
	// thin compatibility wrapper over the Injector verdict path.
	DropEvery uint64
	// DropFn, when non-nil, is consulted per frame (1-based index
	// on the wire) for finer-grained loss injection.  Like
	// DropEvery it folds into the Injector verdict path.
	DropFn func(index uint64, frame []byte) bool
	// Dropped counts frames lost to injection (all sources:
	// DropEvery, DropFn and an attached Injector).
	Dropped uint64

	injector Injector
}

// Verdict is an Injector's decision about one frame.  The zero value
// with FlipBit == -1 (see NoFault) leaves the frame alone.  At most
// one fault field should be set per frame — the fault engine draws
// mutually exclusive outcomes so ledger and trace counters line up.
type Verdict struct {
	// Drop discards the frame after it occupied the wire.
	Drop bool
	// FlipBit, when >= 0, inverts that bit (frame[FlipBit/8] bit
	// 7-FlipBit%8) before delivery — payload corruption that the
	// transport checksums must catch.  -1 means no corruption.
	FlipBit int
	// Dup delivers the frame a second time, DupDelay after the
	// first delivery.  A negative DupDelay counts as zero, so the
	// duplicate is always the frame's last delivery.
	Dup      bool
	DupDelay time.Duration
	// Delay postpones delivery by this much after the frame leaves
	// the wire (the wire itself frees on schedule) — queueing delay
	// in the interface, which reorders frames relative to later
	// undelayed traffic.
	Delay time.Duration
}

// NoFault is the verdict that leaves a frame untouched.
var NoFault = Verdict{FlipBit: -1}

// An Injector decides per wire frame (1-based index) which faults to
// apply.  It runs in event-loop context and must be deterministic.  It
// must not keep frame: the wire hands that buffer to a receiver.
type Injector interface {
	Frame(index uint64, frame []byte) Verdict
}

// SetInjector attaches (or, with nil, detaches) the fault injector.
func (n *Network) SetInjector(i Injector) { n.injector = i }

type txJob struct {
	frame []byte
	from  *NIC
	span  uint64 // provenance span stamped at transmit origin
}

// New creates a network segment of the given link type.
func New(s *sim.Sim, link LinkType) *Network {
	n := &Network{s: s, link: link}
	n.wireDoneFn = n.wireDone
	return n
}

// Link returns the network's link type.
func (n *Network) Link() LinkType { return n.link }

// Sim returns the owning simulation.
func (n *Network) Sim() *sim.Sim { return n.s }

// NIC is one network interface attached to a host.  The kernel (other
// packages) sets Handler to receive frames in event-loop context after
// the driver cost has been charged.
type NIC struct {
	net  *Network
	host *sim.Host
	addr Addr

	// Handler receives each driver entry's frames: one frame, or a
	// coalesced burst (see SetCoalesce) in arrival order.  spans is
	// indexed like frames and holds each frame's provenance span (0
	// when untracked); queue is the receive queue the frames arrived
	// on (0 on a single-queue NIC).  Both slices are valid only during
	// the call.  Handler runs in event-loop context and must not
	// block; it may consume further kernel CPU via host.RunKernel.
	// Each frame is owned outright: no other interface, tap or later
	// delivery of the same transmission shares its backing array, so
	// the handler may keep or overwrite it.
	Handler func(frames [][]byte, spans []uint64, queue int)

	// Promiscuous makes the interface accept every frame.
	Promiscuous bool

	// QueueLimit bounds receive jobs pending on the host CPU, per
	// receive queue; beyond it frames are dropped and counted
	// ("queue overflows in the network interface").  Zero means
	// DefaultQueueLimit.
	QueueLimit int

	// Drops counts frames lost to input-queue overflow, summed
	// across queues.
	Drops uint64

	// Interrupt-coalescing configuration (SetCoalesce), shared by
	// every receive queue; each queue runs its own independent NAPI
	// state machine from it.
	coalesceMax   int
	coalesceDelay time.Duration

	// queues are the interface's receive queues.  A NIC starts with
	// exactly one; SetQueues grows it to an RSS-style multi-queue
	// interface whose flow-steering hash (SteerQueue) assigns each
	// frame to one queue, and whose queues run as parallel kernel
	// lanes on the host.  With one queue no steering happens and no
	// lane is used — the single-queue world is byte-identical to the
	// pre-multi-queue one.
	queues []*rxq
}

// rxq is one receive queue: its own pending ring, its own NAPI
// coalesce state machine, and its own span FIFO.  Queue 0 of a
// single-queue NIC behaves exactly like the pre-multi-queue NIC.
type rxq struct {
	nic *NIC
	idx int
	// lane is the host kernel lane this queue's driver work runs on:
	// -1 (the main CPU) for a single-queue NIC, the queue index for
	// a multi-queue one.
	lane int
	// tag is the KernelTime category for this queue's driver work:
	// "driver" on a single-queue NIC, "driver.qN" on multi-queue, so
	// pfstat's kernel profile breaks receive cost out per queue.
	tag string

	pending int

	// NAPI coalescing state: idle (interrupts unmasked) or polling
	// (frames accumulate in burst; budget or moderation timer
	// flushes).  All transitions ride the simulation event queue, so
	// coalesced runs stay deterministic.
	burst    [][]byte
	polling  bool
	inflight int // bursts handed to the kernel, not yet completed
	// flushTimer is the moderation timer, held through the dual-mode
	// clock interface.
	flushTimer clock.Timer

	// Provenance plumbing.  burstSpans mirrors burst; rxPend is the
	// FIFO of spans handed to kernel receive entries and not yet
	// consumed, so a crash (which clears the host's kernel queues)
	// can terminate exactly the spans buried in the lost entries.
	// rxFrames runs parallel to it with the frame of each uncoalesced
	// entry (nil for a frame riding a burst), so all of those complete
	// through the one pre-bound rxDoneFn, not a closure per frame, and
	// reach the handler as a burst of one through the oneFrame and
	// oneSpan scratch arrays (a slice literal would escape through the
	// Handler call and allocate per frame).
	burstSpans []uint64
	rxPend     []uint64
	rxFrames   [][]byte
	rxHead     int
	rxDoneFn   func()
	oneFrame   [1][]byte
	oneSpan    [1]uint64

	// rx counts frames accepted onto this queue (after steering,
	// before any overflow drop), so tests can prove steering really
	// spreads flows.
	rx uint64
}

func (q *rxq) pushRx(span uint64, frame []byte) {
	q.rxPend = append(q.rxPend, span)
	q.rxFrames = append(q.rxFrames, frame)
}

func newRxq(nic *NIC, idx, lane int, tag string) *rxq {
	q := &rxq{nic: nic, idx: idx, lane: lane, tag: tag}
	q.rxDoneFn = q.rxDone
	return q
}

// popRx consumes the queue's oldest pending receive entry; each lane
// is a serial FIFO server, so within one queue kernel entries retire
// in push order and the head is always the caller's own.
func (q *rxq) popRx() (span uint64, frame []byte) {
	if q.rxHead >= len(q.rxPend) {
		return 0, nil
	}
	span, frame = q.rxPend[q.rxHead], q.rxFrames[q.rxHead]
	q.rxPend[q.rxHead], q.rxFrames[q.rxHead] = 0, nil
	q.rxHead++
	if q.rxHead == len(q.rxPend) {
		q.clearRx()
	}
	return span, frame
}

func (q *rxq) clearRx() {
	q.rxPend = q.rxPend[:0]
	q.rxFrames = q.rxFrames[:0]
	q.rxHead = 0
}

// DefaultQueueLimit is the input-queue bound used when a NIC does not
// set its own.
const DefaultQueueLimit = 32

// Attach adds an interface with the given address to the network.
func (n *Network) Attach(h *sim.Host, addr Addr) *NIC {
	nic := &NIC{net: n, host: h, addr: addr}
	nic.queues = []*rxq{newRxq(nic, 0, -1, "driver")}
	n.nics = append(n.nics, nic)
	// Frames the interface had queued for the CPU die with the host:
	// the host clears its interrupt and lane queues on crash, so
	// every receive queue's pending count must reset with it — and so
	// must each queue's coalescing burst and moderation timer.
	h.OnCrash(func() {
		// Spans riding the lost kernel closures or buffered in the
		// coalescing bursts die with the kernel.
		tr := h.Sim().Tracer()
		now := h.Clock().Now()
		for _, q := range nic.queues {
			for i := q.rxHead; i < len(q.rxPend); i++ {
				tr.SpanDrop(q.rxPend[i], now, h.Name(), trace.DropCrash)
			}
			clear(q.rxFrames)
			q.clearRx()
			for _, s := range q.burstSpans {
				tr.SpanDrop(s, now, h.Name(), trace.DropCrash)
			}
			q.burstSpans = nil
			q.pending = 0
			q.burst = nil
			q.polling = false
			q.inflight = 0
			if q.flushTimer != nil {
				q.flushTimer.Stop()
				q.flushTimer = nil
			}
		}
	})
	return nic
}

// SetQueues grows the interface to n RSS-style receive queues (call
// before traffic flows; shrinking is not supported — queues model
// hardware rings fixed at bring-up).  Each queue gets its own pending
// ring, its own NAPI coalesce machine and its own host kernel lane;
// frames are assigned by the SteerQueue flow hash, so one flow always
// lands on one queue and stays in order.  With n <= 1 this is a no-op
// and the NIC remains the byte-identical single-queue interface.
func (nic *NIC) SetQueues(n int) {
	if n <= 1 || n <= len(nic.queues) {
		return
	}
	nic.host.SetKernelLanes(n)
	q0 := nic.queues[0]
	q0.lane, q0.tag = 0, "driver.q0"
	for len(nic.queues) < n {
		i := len(nic.queues)
		nic.queues = append(nic.queues, newRxq(nic, i, i, fmt.Sprintf("driver.q%d", i)))
	}
}

// Queues returns the number of receive queues (at least 1).
func (nic *NIC) Queues() int { return len(nic.queues) }

// LaneFor returns the host kernel lane that serves receive queue q:
// -1 (the main CPU) on a single-queue NIC.  Demux layers use it to
// run per-queue filter and delivery work on the same parallel kernel
// thread as the queue's driver.
func (nic *NIC) LaneFor(q int) int {
	if len(nic.queues) <= 1 {
		return -1
	}
	return q
}

// QueueRx returns per-queue counts of frames accepted onto each
// receive queue (after steering, before overflow drops).
func (nic *NIC) QueueRx() []uint64 {
	out := make([]uint64, len(nic.queues))
	for i, q := range nic.queues {
		out[i] = q.rx
	}
	return out
}

// SteerQueue is the RSS flow-steering hash: it maps a frame's
// (source, destination, ether-type) tuple to a receive queue in
// [0, n).  The hash is a pure function of the tuple — deterministic,
// stable for a fixed n, and identical for every frame of one flow,
// which is what preserves per-flow delivery order across parallel
// queues.  Frames too short to decode steer to queue 0.
func (l LinkType) SteerQueue(frame []byte, n int) int {
	if n <= 1 {
		return 0
	}
	dst, src, etherType, _, err := l.Decode(frame)
	if err != nil {
		return 0
	}
	return int(steerHash(uint64(src), uint64(dst), etherType) % uint64(n))
}

// steerHash mixes the flow tuple with FNV-1a over its 18 bytes.
func steerHash(src, dst uint64, etherType uint16) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64, bytes int) {
		for i := bytes - 1; i >= 0; i-- {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime
		}
	}
	mix(src, 8)
	mix(dst, 8)
	mix(uint64(etherType), 2)
	return h
}

// SetCoalesce configures interrupt coalescing: up to budget frames are
// delivered per kernel entry, and after a receive poll completes the
// interface holds further frames up to delay of virtual time hoping to
// fill another burst.  A budget of 0 or 1 disables coalescing and the
// interface behaves exactly as before (one driver entry per frame).
// With delay 0 bursts still form, but only from frames that arrive
// while a previous burst is being serviced (pure poll-mode batching,
// no added latency).
func (nic *NIC) SetCoalesce(budget int, delay time.Duration) {
	nic.coalesceMax = budget
	nic.coalesceDelay = delay
}

// Addr returns the interface's data-link address.
func (nic *NIC) Addr() Addr { return nic.addr }

// Host returns the attached host.
func (nic *NIC) Host() *sim.Host { return nic.host }

// Network returns the segment the interface is attached to.
func (nic *NIC) Network() *Network { return nic.net }

// Transmit queues a complete frame for transmission.  It may be called
// from any context; oversized frames are rejected.
//
// Frame ownership on the wire: Transmit copies the caller's frame once,
// so the caller may reuse its buffer at once, and the wire owns that
// copy.  The job's last delivery (the only one, or a duplicate's second)
// hands it to the last accepting interface without a copy; every other
// holder — the other receivers of a broadcast, promiscuous taps, and
// every receiver of a duplicated frame's first delivery — gets its own
// copy.  So each Handler owns its frame outright, and one unicast frame
// costs one buffer from Transmit to Handler.
func (nic *NIC) Transmit(frame []byte) error {
	if len(frame) > nic.net.link.MaxFrame() {
		return fmt.Errorf("ethersim: frame of %d bytes exceeds %d-byte maximum",
			len(frame), nic.net.link.MaxFrame())
	}
	if len(frame) < nic.net.link.HeaderLen() {
		return ErrTruncated
	}
	tr := nic.net.s.Tracer()
	span := tr.SpanOrigin(nic.net.s.Now(), nic.host.Name())
	if nic.host.Down() {
		// A dead machine transmits nothing; in-flight kernel work
		// racing a crash loses its frame silently.
		tr.SpanDrop(span, nic.net.s.Now(), nic.host.Name(), trace.DropNICDown)
		return nil
	}
	nic.host.Counters.PacketsOut++
	nic.host.Sim().Counters.PacketsOut++
	nic.net.send(txJob{frame: append([]byte(nil), frame...), from: nic, span: span})
	return nil
}

func (n *Network) send(job txJob) {
	if len(n.txq) == cap(n.txq) && n.txHead > len(n.txq)/2 {
		// A saturated wire never drains the queue: slide the live
		// jobs down rather than let append carry the dead head into
		// an ever bigger array.
		live := copy(n.txq, n.txq[n.txHead:])
		clear(n.txq[live:])
		n.txq, n.txHead = n.txq[:live], 0
	}
	n.txq = append(n.txq, job)
	n.pumpWire()
}

func (n *Network) pumpWire() {
	if n.wireBusy || n.txHead == len(n.txq) {
		return
	}
	job := n.txq[n.txHead]
	n.txq[n.txHead] = txJob{}
	n.txHead++
	if n.txHead == len(n.txq) {
		n.txq, n.txHead = n.txq[:0], 0
	}
	n.wireBusy = true
	n.FramesOnWire++
	idx := n.FramesOnWire

	// One verdict per frame: the injector's, then the legacy
	// DropEvery/DropFn wrappers folded into the same path.
	v := NoFault
	injected := false
	if n.injector != nil {
		v = n.injector.Frame(idx, job.frame)
		injected = v != NoFault
	}
	if !injected {
		if n.DropEvery > 0 && idx%n.DropEvery == 0 {
			v.Drop = true
		}
		if !v.Drop && n.DropFn != nil && n.DropFn(idx, job.frame) {
			v.Drop = true
		}
	}

	txTime := time.Duration(int64(len(job.frame)) * 8 * int64(time.Second) / n.link.Bandwidth())
	tr := n.s.Tracer()
	src := job.from.host.Name()
	if tr != nil {
		tr.WireTx(n.s.Now(), src, len(job.frame), txTime)
	}
	tr.SpanMark(job.span, trace.StageWire, n.s.Now())
	if v.Drop {
		n.Dropped++
		if tr != nil {
			tr.Drop(n.s.Now(), src, "wire")
			if injected {
				tr.Fault(n.s.Now(), src, "drop", idx)
			}
		}
		tr.SpanDrop(job.span, n.s.Now(), src, trace.DropWireFault)
	}
	if !v.Drop && v.FlipBit >= 0 && v.FlipBit < len(job.frame)*8 {
		job.frame[v.FlipBit/8] ^= 0x80 >> (v.FlipBit % 8)
		if tr != nil {
			tr.Fault(n.s.Now(), src, "corrupt", idx)
		}
		tr.SpanFlag(job.span, trace.FlagCorrupt)
	}
	var dupSpan uint64
	if !v.Drop && v.Dup {
		if tr != nil {
			tr.Fault(n.s.Now(), src, "dup", idx)
		}
		dupSpan = tr.SpanFork(job.span, n.s.Now(), src)
		tr.SpanFlag(dupSpan, trace.FlagDup)
	}
	if !v.Drop && v.Delay > 0 {
		if tr != nil {
			tr.Fault(n.s.Now(), src, "delay", idx)
		}
		tr.SpanFlag(job.span, trace.FlagDelayed)
	}
	n.onWire, n.verdict, n.dupSpan = job, v, dupSpan
	n.s.After(txTime, n.wireDoneFn)
}

// wireDone runs when the frame in onWire has left the medium: deliver
// it as its verdict says, then start the next transmission.
func (n *Network) wireDone() {
	job, v, dupSpan := n.onWire, n.verdict, n.dupSpan
	n.onWire = txJob{}
	n.wireBusy = false
	if !v.Drop {
		// A duplicated frame's first delivery copies for every
		// receiver; the duplicate, scheduled after it, is the last.
		last := !v.Dup
		if v.Delay > 0 {
			n.s.After(v.Delay, func() { n.deliver(job, job.span, last) })
		} else {
			n.deliver(job, job.span, last)
		}
		if v.Dup {
			n.s.After(v.Delay+max(v.DupDelay, 0), func() { n.deliver(job, dupSpan, true) })
		}
	}
	n.pumpWire()
}

// deliver hands the frame to every accepting interface.  The first
// recipient inherits the frame's span; extra broadcast/promiscuous
// recipients get forked child spans, and a frame nobody accepts
// terminates as DropNoReceiver.  On the job's last delivery the last
// accepting interface takes job.frame itself; everyone else copies
// (see Transmit).
func (n *Network) deliver(job txJob, span uint64, last bool) {
	tr := n.s.Tracer()
	dst, _, _, _, err := n.link.Decode(job.frame)
	if err != nil {
		tr.SpanDrop(span, n.s.Now(), job.from.host.Name(), trace.DropNoReceiver)
		return
	}
	var heir *NIC
	if last {
		for i := len(n.nics) - 1; i >= 0; i-- {
			if n.nics[i].accepts(dst, job.from) {
				heir = n.nics[i]
				break
			}
		}
	}
	delivered := false
	for _, nic := range n.nics {
		if !nic.accepts(dst, job.from) {
			continue
		}
		s := span
		if delivered {
			s = tr.SpanFork(span, n.s.Now(), nic.host.Name())
		}
		delivered = true
		nic.receive(job.frame, s, nic == heir)
	}
	if !delivered {
		tr.SpanDrop(span, n.s.Now(), job.from.host.Name(), trace.DropNoReceiver)
	}
}

// accepts reports whether the interface takes a frame for dst sent by
// from: never its own, else its address, broadcast, or anything when
// promiscuous.
func (nic *NIC) accepts(dst Addr, from *NIC) bool {
	return nic != from && (nic.Promiscuous || dst == nic.addr || dst == nic.net.link.BroadcastAddr())
}

// receive queues an accepted frame for the host CPU.  With owned set
// the interface keeps frame itself; otherwise it copies it, and only
// once the frame is past the queue checks.
func (nic *NIC) receive(frame []byte, span uint64, owned bool) {
	if nic.host.Down() {
		// Frames addressed to a crashed host fall on the floor,
		// counted like any interface loss.
		nic.Drops++
		nic.host.Counters.PacketsDropped++
		nic.host.Sim().Counters.PacketsDropped++
		if tr := nic.host.Sim().Tracer(); tr != nil {
			tr.Drop(nic.host.Clock().Now(), nic.host.Name(), "nic")
		}
		nic.host.Sim().Tracer().SpanDrop(span, nic.host.Clock().Now(), nic.host.Name(), trace.DropNICDown)
		return
	}
	h := nic.host
	q := nic.queues[0]
	if len(nic.queues) > 1 {
		// RSS steering: the flow hash picks the queue, and the hash
		// cost is charged as part of that queue's driver entry.
		q = nic.queues[nic.net.link.SteerQueue(frame, len(nic.queues))]
		h.Counters.SteeredFrames++
		h.Sim().Counters.SteeredFrames++
	}
	limit := nic.QueueLimit
	if limit == 0 {
		limit = DefaultQueueLimit
	}
	if q.pending >= limit {
		nic.Drops++
		h.Counters.PacketsDropped++
		h.Sim().Counters.PacketsDropped++
		if tr := h.Sim().Tracer(); tr != nil {
			tr.Drop(h.Clock().Now(), h.Name(), "nic")
		}
		h.Sim().Tracer().SpanDrop(span, h.Clock().Now(), h.Name(), trace.DropNICQueue)
		return
	}
	q.pending++
	q.rx++
	own := frame
	if !owned {
		own = append([]byte(nil), frame...)
	}
	h.Counters.PacketsIn++
	h.Sim().Counters.PacketsIn++
	tr := h.Sim().Tracer()
	if tr != nil {
		tr.WireRx(h.Clock().Now(), h.Name(), len(frame))
	}
	tr.SpanMark(span, trace.StageNIC, h.Clock().Now())
	if nic.coalesceMax > 1 {
		q.coalesce(own, span)
		return
	}
	q.pushRx(span, own)
	cost := h.Costs().DriverRecv
	if q.lane >= 0 {
		cost += h.Costs().Steer
	}
	h.RunKernelOn(q.lane, q.tag, cost, q.rxDoneFn)
}

// rxDone completes the driver entry of the queue's oldest uncoalesced
// frame and hands the frame to the kernel as a burst of one.
func (q *rxq) rxDone() {
	q.pending--
	q.oneSpan[0], q.oneFrame[0] = q.popRx()
	q.hand(q.oneFrame[:], q.oneSpan[:])
	q.oneFrame[0] = nil
}

// hand gives one driver entry's frames to the kernel's Handler; with
// none installed their spans end unclaimed.
func (q *rxq) hand(frames [][]byte, spans []uint64) {
	nic := q.nic
	if nic.Handler != nil {
		nic.Handler(frames, spans, q.idx)
		return
	}
	h := nic.host
	tr := h.Sim().Tracer()
	for _, s := range spans {
		tr.SpanDrop(s, h.Clock().Now(), h.Name(), trace.DropUnclaimed)
	}
}

// coalesce buffers an accepted frame under the queue's poll state
// machine.  The first frame after an idle period flushes immediately
// (the "interrupt"); while a poll is in progress or the moderation
// timer is armed, frames accumulate until the budget fills or the
// timer fires.
func (q *rxq) coalesce(frame []byte, span uint64) {
	nic := q.nic
	q.burst = append(q.burst, frame)
	q.burstSpans = append(q.burstSpans, span)
	nic.host.Sim().Tracer().SpanMark(span, trace.StageBurst, nic.host.Clock().Now())
	if !q.polling {
		q.polling = true
		q.flush()
		return
	}
	if len(q.burst) >= nic.coalesceMax {
		q.flush()
	}
}

// flush hands up to one budget's worth of the queue's buffered frames
// to the kernel in a single driver entry: DriverRecv for the entry
// itself plus DriverPoll per additional frame (plus the per-frame
// steering hash on a multi-queue NIC).
func (q *rxq) flush() {
	nic := q.nic
	if q.flushTimer != nil {
		q.flushTimer.Stop()
		q.flushTimer = nil
	}
	if len(q.burst) == 0 {
		return
	}
	n := len(q.burst)
	if n > nic.coalesceMax {
		n = nic.coalesceMax
	}
	frames := q.burst[:n:n]
	q.burst = q.burst[n:]
	spans := q.burstSpans[:n:n]
	q.burstSpans = q.burstSpans[n:]
	for _, s := range spans {
		q.pushRx(s, nil)
	}

	h := nic.host
	h.Counters.Bursts++
	h.Sim().Counters.Bursts++
	h.Counters.CoalescedFrames += uint64(n)
	h.Sim().Counters.CoalescedFrames += uint64(n)
	if tr := h.Sim().Tracer(); tr != nil {
		tr.Burst(h.Clock().Now(), h.Name(), n, len(q.burst))
	}
	costs := h.Costs()
	cost := costs.DriverRecv + time.Duration(n-1)*costs.DriverPoll
	if q.lane >= 0 {
		cost += time.Duration(n) * costs.Steer
	}
	q.inflight++
	h.RunKernelOn(q.lane, q.tag, cost, func() {
		q.pending -= n
		q.inflight--
		for range spans {
			q.popRx()
		}
		q.hand(frames, spans)
		q.pollDone()
	})
}

// pollDone runs after a burst's kernel entry completes: a full buffer
// flushes again at once; otherwise the moderation timer is armed so a
// partial burst (or, with nothing buffered, the return to idle) waits
// out the coalesce delay.
func (q *rxq) pollDone() {
	nic := q.nic
	if len(q.burst) >= nic.coalesceMax {
		q.flush()
		return
	}
	if q.flushTimer != nil {
		return
	}
	q.flushTimer = nic.host.Clock().AfterFunc(nic.coalesceDelay, func() {
		q.flushTimer = nil
		if len(q.burst) > 0 {
			q.flush()
		} else if q.inflight == 0 {
			q.polling = false
		}
	})
}
