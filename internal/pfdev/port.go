package pfdev

import (
	"sort"
	"time"

	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Port is one packet-filter port, opened by a process as a character
// special device.
type Port struct {
	dev *Device

	// Binding is the bound filter, its scan-index place, its match
	// counters and its governor bucket (index.go, gov.go); PortQueue is
	// the input queue and its accounting (queue.go).
	Binding
	PortQueue

	timeout  time.Duration // 0: block forever; <0: non-blocking
	batchMax int           // ReadBatch upper bound; 0 = unlimited
	closed   bool

	// wakePending marks the port as already collected for a coalesced
	// burst's once-per-port reader wakeup.
	wakePending bool

	// lastRxQ is the receive queue that last delivered to this port
	// (-1 before the first delivery); a handoff from a different
	// queue charges the cross-queue XQDeliver penalty.  Unused on a
	// single-queue device.
	lastRxQ int

	// ring, when non-nil, is the mapped shared-memory ring (ring.go);
	// the counters below split delivery between the two paths.
	ring        *ring
	reaps       uint64 // successful ReapBatch calls through the ring
	reaped      uint64 // packets returned by ReapBatch
	bytesCopied uint64 // payload bytes moved kernel<->user for this port
	bytesMapped uint64 // payload bytes delivered or sent in place
	descErrors  uint64 // hostile/malformed ring descriptors rejected

	privileged bool // may bind filters above PrivilegedPriority

	readers  *sim.WaitQ
	watchers []*sim.WaitQ // Select subscribers
}

// Open opens a new port on the device.  Process context.
func (d *Device) Open(p *sim.Proc) *Port {
	p.Syscall("pf")
	port := &Port{dev: d, readers: d.host.Sim().NewWaitQ(), lastRxQ: -1}
	port.InitQueue(d.host.Name(), &d.queuedTotal)
	d.AddPort(port, &port.Binding, d.host.Clock().Now())
	return port
}

// OpenPrivileged opens a port allowed to bind filters at or above the
// device's PrivilegedPriority threshold (§3.2's restricted
// high-priority filters).
func (d *Device) OpenPrivileged(p *sim.Proc) *Port {
	port := d.Open(p)
	port.privileged = true
	return port
}

// SetFilter binds a filter to the port via ioctl; "a new filter can be
// bound at any time, at a cost comparable to that of receiving a
// packet" (§3).  Under EvalFast/EvalCompiled the program is validated
// and compiled to flat code here, at bind time, not per packet.
func (port *Port) SetFilter(p *sim.Proc, f filter.Filter) error {
	p.Syscall("pf")
	p.CopyIn("pf", 2+2*len(f.Program))
	p.ConsumeKernel("pf", p.Sim().Costs().Copy(128)) // "comparable to receiving a packet"

	if t := port.dev.opt.PrivilegedPriority; t > 0 && f.Priority >= t && !port.privileged {
		return ErrPriority
	}

	return port.dev.Bind(port, &port.Binding, f, !port.closed)
}

// SetTimeout sets the blocking-read timeout: 0 blocks indefinitely, a
// negative value makes reads non-blocking (§3.3: "the timeout duration
// for blocking reads (or optionally, immediate return or indefinite
// blocking)").
func (port *Port) SetTimeout(p *sim.Proc, d time.Duration) {
	p.Syscall("pf")
	port.timeout = d
}

// SetQueueLimit sets the maximum per-port input queue length.
func (port *Port) SetQueueLimit(p *sim.Proc, n int) {
	p.Syscall("pf")
	port.PortQueue.SetQueueLimit(n)
}

// SetCopyAll requests that packets accepted by this port's filter also
// be submitted to lower-priority filters (§3.2); monitors set it.
func (port *Port) SetCopyAll(p *sim.Proc, on bool) {
	p.Syscall("pf")
	port.copyAll = on
}

// SetStamp enables receive timestamping (§3.3); each stamped packet
// costs the kernel a microtime() call (§7).
func (port *Port) SetStamp(p *sim.Proc, on bool) {
	p.Syscall("pf")
	port.PortQueue.SetStamp(on)
}

// SetBatchMax bounds how many packets one ReadBatch may return; 0
// means all queued packets.
func (port *Port) SetBatchMax(p *sim.Proc, n int) {
	p.Syscall("pf")
	port.batchMax = n
}

// enqueue adds a packet to the port queue and wakes readers (kernel
// context).  arrived is when the frame entered the packet-filter input
// path; span is the packet's provenance span.
func (port *Port) enqueue(frame []byte, arrived time.Duration, span uint64) {
	if port.enqueueQuiet(frame, arrived, span) {
		port.wakeReaders()
	}
}

// enqueueQuiet adds a packet to the port queue without waking readers,
// reporting whether it was queued (false: dropped on overflow).  The
// coalesced input path enqueues a whole burst and then wakes each
// port's readers once.
func (port *Port) enqueueQuiet(frame []byte, arrived time.Duration, span uint64) bool {
	h := port.dev.host
	tr := h.Sim().Tracer()
	now := h.Clock().Now()
	r := port.ring
	if full := port.Full(port.dev.queueCap); full || (r != nil && len(r.free) == 0) {
		// A mapped ring can hold one frame per slot, and slots stay
		// reserved while queued *or* lent out to a reaping process;
		// with none free, overflow drops exactly like a full input
		// queue rather than overwriting a frame still being read.
		reason := trace.DropPortQueue
		if !full {
			reason = trace.DropRingSlots
		}
		h.Counters.PacketsDropped++
		h.Sim().Counters.PacketsDropped++
		port.Overflow(tr, now, port.id, span, reason)
		return false
	}
	var slot int
	if r != nil {
		// Deposit the frame in place: the driver writes straight into
		// a free receive slot of the shared segment, so the later reap
		// moves no data.
		frame, slot = r.deposit(frame)
	}
	port.Push(tr, now, port.id, frame, arrived, span).slot = slot
	return true
}

// wakeReaders wakes one blocked reader and every Select watcher.
func (port *Port) wakeReaders() {
	h := port.dev.host
	port.readers.WakeOne(h)
	for _, w := range port.watchers {
		w.WakeOne(h)
	}
}

// Read returns the first queued packet, blocking per the port timeout.
// One system call and one kernel-to-user copy per packet (figure 3-4).
//
// Tie-break: when the read timeout and a packet delivery land on the
// same virtual instant, whichever event was scheduled first wins — the
// timeout was scheduled when the wait began, so a packet arriving via
// the receive path exactly at the deadline loses the race, Read
// returns ErrTimeout, and the packet stays queued for the next read.
// Only an enqueue whose event was scheduled before the wait started
// can beat the timeout at the same tick.  This order is deterministic
// (sim events at equal times run in scheduling order) and is pinned by
// TestReadTimeoutVsSameTickDelivery.
func (port *Port) Read(p *sim.Proc) (Packet, error) {
	if err := port.enterRead(p, "pfread"); err != nil {
		return Packet{}, err
	}
	pkt := port.TakeOne(p.Now())
	if r := port.ring; r != nil && pkt.slot > 0 {
		// Read copies the frame out of its ring slot; the slot frees
		// immediately.
		r.free = append(r.free, pkt.slot-1)
		pkt.slot = 0
	}
	port.bytesCopied += uint64(len(pkt.Data))
	p.CopyOut("pfread", len(pkt.Data))
	if tr := p.Sim().Tracer(); tr != nil {
		tr.PortCopied(port.dev.host.Name(), len(pkt.Data))
		port.Delivered(tr, p.Now(), port.id, pkt)
	}
	return pkt, nil
}

// enterRead is a read's kernel entry: the system call charged under
// tag, the ring's lent slots reclaimed, and the wait for a queued
// packet under the port's timeout.
func (port *Port) enterRead(p *sim.Proc, tag string) error {
	if port.closed {
		return ErrClosed
	}
	p.Syscall(tag)
	if r := port.ring; r != nil {
		r.reclaim()
	}
	for port.Len() == 0 {
		if port.timeout < 0 {
			return ErrWouldBlock
		}
		if !p.Wait(port.readers, port.timeout) {
			return ErrTimeout
		}
		if port.closed {
			return ErrClosed
		}
	}
	return nil
}

// ReadBatch returns all queued packets (up to the batch bound) in one
// system call, amortizing its overhead (§3: "The program may ask that
// all pending packets be returned in a batch; this is useful for
// high-volume communications", figure 3-5).  It blocks like Read when
// the queue is empty.
func (port *Port) ReadBatch(p *sim.Proc) ([]Packet, error) {
	return port.drainBatch(p, false)
}

// drainBatch is the shared body of ReadBatch and ReapBatch: identical
// blocking, timeout, batch-bound and drain behavior, differing only in
// how the drained bytes are charged (one kernel-to-user copy vs
// per-descriptor ring handling with the data already in place).  The
// ring/copy equivalence property test pins that the two paths return
// the same packet sequence.
func (port *Port) drainBatch(p *sim.Proc, viaRing bool) ([]Packet, error) {
	tag := "pfread"
	if viaRing {
		tag = "pfreap"
	}
	if err := port.enterRead(p, tag); err != nil {
		return nil, err
	}
	n := port.Len()
	if port.batchMax > 0 && n > port.batchMax {
		n = port.batchMax
	}
	batch := make([]Packet, n)
	port.take(batch, p.Now())
	// Charge each packet against the ring as it exists *now* — the
	// mapping may have appeared or dissolved while we blocked.  Only
	// frames that actually sit in a live ring slot and leave through
	// ReapBatch are descriptor handovers; everything else (fallback
	// private copies, frames orphaned by an unmap, any ReadBatch
	// drain) crosses the boundary as a copy.
	r := port.ring
	mapped, copied, ringPkts := 0, 0, 0
	for i := range batch {
		pkt := &batch[i]
		switch {
		case viaRing && r != nil && pkt.slot > 0:
			// Handed over in place; the slot is lent until the
			// process's next drain call reclaims it.
			r.lent = append(r.lent, pkt.slot-1)
			mapped += len(pkt.Data)
			ringPkts++
		case r != nil && pkt.slot > 0:
			// Copied out of its slot; the slot frees immediately.
			r.free = append(r.free, pkt.slot-1)
			pkt.slot = 0
			copied += len(pkt.Data)
		default:
			pkt.slot = 0
			copied += len(pkt.Data)
		}
	}
	h := port.dev.host
	tr := p.Sim().Tracer()
	if ringPkts > 0 {
		// The frames already sit in the shared segment; the kernel
		// only validates and hands over the descriptors.
		port.reaps++
		port.reaped += uint64(ringPkts)
		port.bytesMapped += uint64(mapped)
		h.Counters.RingReaps++
		h.Sim().Counters.RingReaps++
		p.ConsumeKernel(tag, time.Duration(ringPkts)*p.Sim().Costs().RingDesc)
		p.Mapped(tag, mapped)
		if tr != nil {
			tr.RingReap(p.Now(), h.Name(), port.id, ringPkts, mapped)
		}
	}
	if ringPkts < n {
		port.batches++
		port.batched += uint64(n - ringPkts)
		port.bytesCopied += uint64(copied)
		// One copy for the whole batch: the win over per-packet reads.
		p.CopyOut(tag, copied)
		if tr != nil {
			tr.PortCopied(h.Name(), copied)
		}
	}
	port.Delivered(tr, p.Now(), port.id, batch...)
	return batch, nil
}

// Poll reports whether a packet is queued, without blocking (the
// cheap half of a 4.3BSD select).
func (port *Port) Poll(p *sim.Proc) bool {
	p.Syscall("pf")
	return port.Len() > 0
}

// Write transmits a complete frame, including the data-link header;
// "control returns to the user once the packet is queued for
// transmission" (§3).
func (port *Port) Write(p *sim.Proc, frame []byte) error {
	return port.WriteBatch(p, [][]byte{frame})
}

// WriteBatch transmits several complete frames in one system call,
// §7's proposed symmetric optimization: "a write-batching option (to
// send several packets in one system call) might also improve
// performance."  One kernel entry and one user-to-kernel copy cover
// the whole batch; the driver cost is still paid per frame.
func (port *Port) WriteBatch(p *sim.Proc, frames [][]byte) error {
	if port.closed {
		return ErrClosed
	}
	p.Syscall("pfsend")
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	p.CopyIn("pfsend", total)
	port.bytesCopied += uint64(total)
	if tr := p.Sim().Tracer(); tr != nil {
		tr.PortCopied(port.dev.host.Name(), total)
	}
	costs := p.Sim().Costs()
	for _, f := range frames {
		p.ConsumeKernel("driver", costs.DriverSend)
		if err := port.dev.nic.Transmit(f); err != nil {
			return err
		}
	}
	return nil
}

// PortStats is the per-port statistics block reported by Port.Stats
// and Device.PortStats — the §3.3 "count of the number of packets
// lost" generalized to everything the kernel already tracks per port.
// It is fed from the same counters the trace layer reads.
type PortStats struct {
	ID           int    `json:"id"`
	Priority     uint8  `json:"priority"`
	Queued       int    `json:"queued"`        // packets on the input queue now
	MaxQueued    int    `json:"max_queued"`    // input-queue high-water mark
	Dropped      uint64 `json:"dropped"`       // lost to queue overflow
	Matched      uint64 `json:"matched"`       // accepted by this port's filter
	FilterInstrs uint64 `json:"filter_instrs"` // instruction words interpreted
	Reads        uint64 `json:"reads"`         // single-packet reads
	BatchReads   uint64 `json:"batch_reads"`   // ReadBatch calls
	BatchPackets uint64 `json:"batch_packets"` // packets returned by ReadBatch
	RingReaps    uint64 `json:"ring_reaps"`    // ReapBatch calls through a mapped ring
	ReapPackets  uint64 `json:"reap_packets"`  // packets returned by ReapBatch
	BytesCopied  uint64 `json:"bytes_copied"`  // payload bytes moved kernel<->user
	BytesMapped  uint64 `json:"bytes_mapped"`  // payload bytes delivered/sent in place
	DescErrors   uint64 `json:"desc_errors"`   // malformed ring descriptors rejected

	// Governor and residency accounting (gov.go); the governed fields
	// stay zero on an ungoverned device.
	FuelSpent       uint64        `json:"fuel_spent,omitempty"`       // instruction units charged
	Quarantines     uint64        `json:"quarantines,omitempty"`      // penalty windows entered
	QuarantineSkips uint64        `json:"quarantine_skips,omitempty"` // evaluations skipped under quarantine
	AvgResidency    time.Duration `json:"avg_residency_ns,omitempty"` // mean queue residency of delivered packets
}

// Stats reports the port's statistics block (kernel bookkeeping only;
// no system call is charged — the device status read PortStats is the
// user-visible ioctl).
func (port *Port) Stats() PortStats {
	ps := port.FilterStats()
	port.QueueStats(&ps)
	ps.RingReaps = port.reaps
	ps.ReapPackets = port.reaped
	ps.BytesCopied = port.bytesCopied
	ps.BytesMapped = port.bytesMapped
	ps.DescErrors = port.descErrors
	return ps
}

// PortStats returns the statistics blocks of every open port in port-id
// order — the status-read extension of §3.3's lost-packet counts.
// Process context; charges an ioctl.
func (d *Device) PortStats(p *sim.Proc) []PortStats {
	p.Syscall("pf")
	stats := make([]PortStats, 0, len(d.ports))
	for _, port := range d.ports {
		stats = append(stats, port.Stats())
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].ID < stats[j].ID })
	return stats
}

// Host returns the host this port's device is attached to.
func (port *Port) Host() *sim.Host { return port.dev.host }

// Close releases the port; blocked readers fail with ErrClosed.
func (port *Port) Close(p *sim.Proc) {
	if port.closed {
		return
	}
	p.Syscall("pf")
	port.closed = true
	port.Discard(port.dev.host.Sim().Tracer(), port.dev.host.Clock().Now(), trace.DropPortClose)
	port.detachRing()
	port.readers.WakeAll(port.dev.host)
	port.dev.DropPort(&port.Binding)
}

// Select blocks until one of the ports has a queued packet — or has
// been closed under the caller, which also makes it "ready" so the
// next Read surfaces ErrClosed instead of Select blocking forever on a
// dead port (a host crash closes every port).  Returns the ready
// index, or -1 on timeout.  It models the 4.3BSD select mechanism the
// paper cites for non-blocking network I/O (§3).
func Select(p *sim.Proc, ports []*Port, timeout time.Duration) int {
	p.Syscall("pf")
	check := func() int {
		for i, port := range ports {
			if port.closed || port.Len() > 0 {
				return i
			}
		}
		return -1
	}
	if i := check(); i >= 0 {
		return i
	}
	q := p.Sim().NewWaitQ()
	for _, port := range ports {
		port.watchers = append(port.watchers, q)
	}
	defer func() {
		for _, port := range ports {
			for i, w := range port.watchers {
				if w == q {
					port.watchers = append(port.watchers[:i], port.watchers[i+1:]...)
					break
				}
			}
		}
	}()
	deadline := p.Now() + timeout
	for {
		remain := time.Duration(0)
		if timeout > 0 {
			remain = deadline - p.Now()
			if remain <= 0 {
				return -1
			}
		}
		if !p.Wait(q, remain) {
			return -1
		}
		if i := check(); i >= 0 {
			return i
		}
	}
}
