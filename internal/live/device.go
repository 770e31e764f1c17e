// Package live hosts the packet-filter engine on real time and real
// goroutines, driven by frames arriving from a loopback-UDP wire
// (wire.go) instead of the virtual Ethernet.
//
// The engine state is pfdev's own code, not a copy: each Port embeds a
// pfdev.Binding (the filter validated or compiled per evaluation mode,
// its per-mode evaluation and pricing, match counters and the
// governor's token bucket and quarantine), the Device keeps its scan
// order and decision table in a pfdev.TableIndex (busy-first
// reordering, incremental table patches, the slot→port scan index) and
// its overload controller in a pfdev.Admission.  Those types take the
// caller's clock reading, so here they run on wall time.  What stays in
// this package is the clock, the locking, the queues and the two match
// loops, which differ from pfdev's only in that the simulated device
// charges virtual CPU for every evaluation step (the paper's §6
// numbers) while the live one measures wall time instead.  The
// mode-equivalence test pins that the two devices, given the same
// filter set and packet sequence, fill in the same pfdev.PortStats
// field by field.
//
// Concurrency model: one mutex serializes the whole device — the wire
// receive goroutine delivering frames, control-socket goroutines
// reading ports and stats, and timer callbacks.  That mirrors the
// original kernel driver (filter evaluation ran at splimp, reads under
// the kernel lock) and lets the trace/span subsystem, written for the
// single-threaded simulator, be reused unmodified.
package live

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/trace"
)

// Errors returned by port operations; they mirror pfdev's.
var (
	ErrTimeout    = errors.New("live: read timed out")
	ErrClosed     = errors.New("live: port closed")
	ErrWouldBlock = errors.New("live: no packet queued")
	ErrNoPort     = errors.New("live: no such port")
)

// Options configures a live Device.
type Options struct {
	// Link is the data link the carried frames belong to; it decides
	// header geometry for filter environments (PUSHHDRLEN) and the
	// socket-filter word offsets.  Default Ether10Mb.
	Link ethersim.LinkType
	// Mode selects the evaluation strategy, exactly as in pfdev.
	Mode pfdev.EvalMode
	// Reorder enables §3.2 busy-first reordering every ReorderEvery
	// packets (default 64).
	Reorder      bool
	ReorderEvery int
	// Extensions permits the §7 extended instructions.
	Extensions bool
	// Gov configures the resource governor; the zero value disables
	// it.  Quarantine windows and token refill run on the device
	// clock — wall seconds in live mode.
	Gov pfdev.GovConfig
	// Clock is the device's time source.  Defaults to clock.NewWall();
	// tests may substitute any clock.Clock.
	Clock clock.Clock
	// Tracer, when non-nil, receives the same instrumentation the
	// simulated device emits (counters, spans, flight recorder).  All
	// tracer access is serialized under the device mutex.
	Tracer *trace.Tracer
	// Name is the host label used in trace attribution (default
	// "live").
	Name string
	// Queues selects the number of RSS-style receive queues.  Values
	// <= 1 keep the classic path: Input runs the whole demux inline on
	// the caller's goroutine.  With N > 1, Input steers each frame by
	// its flow tuple (ethersim.LinkType.SteerQueue — the same hash the
	// simulated NIC uses) onto one of N queue workers, the live mirror
	// of pfdev's per-queue kernel lanes.  One flow maps to one queue
	// and one worker drains each queue in FIFO order, so per-flow
	// arrival order is preserved by construction.  Queue hand-off uses
	// blocking sends: a backed-up queue exerts backpressure on the wire
	// receive loop instead of shedding silently, keeping the load
	// driver's exact frame reconciliation intact.
	Queues int
}

// Device is the live-mode packet-filter device.
type Device struct {
	mu   sync.Mutex
	clk  clock.Clock
	tr   *trace.Tracer
	name string
	opt  Options

	// idx is the scan order (priority desc, busy-first within
	// priority) and the published decision table with its scan index —
	// pfdev's code, patched under the mutex.  A match snapshots the
	// table once and finishes on it even if a governor transition
	// patches mid-scan.
	idx     pfdev.TableIndex[*Port]
	byID    map[int]*Port // open ports by id
	nextID  int
	pktSeen uint64

	// Governor state: the admission controller is pfdev's; the backlog
	// it is fed is queuedTotal (gov.go).  scanQuarSkip marks a match
	// pass that skipped a quarantined filter.
	adm          pfdev.Admission
	queuedTotal  int
	scanQuarSkip bool

	received    uint64 // frames handed to Input
	kernelDrops uint64 // no-match / quota / admission drops

	treeScratch []*Port
	portScratch []*Port

	// Multi-queue receive state (mq.go).  rxqs is built once in
	// NewDevice and never mutated, so Input may read it without the
	// mutex; qrx counts frames demuxed per queue (under mu).
	rxqs   []chan []byte
	qrx    []uint64
	mqQuit chan struct{}
	mqWG   sync.WaitGroup

	closed bool
}

// NewDevice creates a live device.
func NewDevice(opt Options) *Device {
	if opt.ReorderEvery <= 0 {
		opt.ReorderEvery = 64
	}
	if opt.Clock == nil {
		opt.Clock = clock.NewWall()
	}
	if opt.Name == "" {
		opt.Name = "live"
	}
	opt.Gov = opt.Gov.WithDefaults()
	d := &Device{clk: opt.Clock, tr: opt.Tracer, name: opt.Name, opt: opt, byID: make(map[int]*Port)}
	d.idx.Setup(opt.Mode, opt.Extensions, filter.Env{HeaderWords: opt.Link.HeaderWords()}, &d.opt.Gov, false)
	d.startQueues()
	return d
}

// Queues returns the number of receive queues (1 when single-queue).
func (d *Device) Queues() int {
	if len(d.rxqs) > 1 {
		return len(d.rxqs)
	}
	return 1
}

// Clock returns the device's time source.
func (d *Device) Clock() clock.Clock { return d.clk }

// Tracer returns the device's tracer (may be nil).
func (d *Device) Tracer() *trace.Tracer { return d.tr }

// Name returns the trace host label.
func (d *Device) Name() string { return d.name }

// Link returns the data-link type the device was configured for.
func (d *Device) Link() ethersim.LinkType { return d.opt.Link }

// Packet is one received packet as returned by Read: the complete
// frame including the data-link header, plus the optional receive
// timestamp and the cumulative drop count, as in pfdev.Packet.
type Packet struct {
	Data  []byte
	Stamp time.Duration
	Drops uint64

	arrived time.Duration // when the frame entered Input
	qAt     time.Duration // when it was enqueued
	span    uint64
}

// Span returns the packet's provenance span id (0 when untracked).
func (pkt Packet) Span() uint64 { return pkt.span }

// Port is one open port on the live device.
type Port struct {
	dev     *Device
	id      int
	copyAll bool
	stamp   bool
	closed  bool

	// Binding is the bound filter, its scan-index place, its match
	// counters and its governor bucket — the same state as a simulated
	// port's.  It sits next to the flags above so a scan visit touches
	// as few cache lines as possible.
	pfdev.Binding

	queue      []Packet
	qhead      int
	queueLimit int
	maxQueued  int
	dropped    uint64

	reads   uint64
	batches uint64
	batched uint64

	qresSum time.Duration
	qresN   uint64

	spanDropCtrs [trace.NumDropReasons]*trace.Counter
	qGauge       *trace.Gauge

	readers *sync.Cond // on dev.mu; broadcast on enqueue/close/timeout
}

// DefaultQueueLimit matches pfdev's default per-port input queue bound.
const DefaultQueueLimit = pfdev.DefaultQueueLimit

// Open opens a new port on the device.
func (d *Device) Open() *Port {
	d.mu.Lock()
	defer d.mu.Unlock()
	port := &Port{
		dev:        d,
		id:         d.nextID,
		queueLimit: DefaultQueueLimit,
	}
	port.readers = sync.NewCond(&d.mu)
	d.nextID++
	d.byID[port.id] = port
	d.idx.AddPort(port, &port.Binding, d.clk.Now())
	return port
}

// Port returns the open port with the given id, or nil.
func (d *Device) Port(id int) *Port {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.byID[id]
}

// ID returns the port's device-unique id.
func (port *Port) ID() int { return port.id }

// SetFilter binds a filter to the port, validating or compiling it at
// bind time exactly as the simulated device's ioctl does.
func (port *Port) SetFilter(f filter.Filter) error {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if port.closed {
		return ErrClosed
	}
	return d.idx.Bind(port, &port.Binding, f, true)
}

// SetQueueLimit sets the maximum per-port input queue length.
func (port *Port) SetQueueLimit(n int) {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	if n < 1 {
		n = 1
	}
	port.queueLimit = n
}

// SetCopyAll requests that packets accepted by this port's filter also
// be submitted to lower-priority filters (§3.2).
func (port *Port) SetCopyAll(on bool) {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	port.copyAll = on
}

// SetStamp enables receive timestamping.
func (port *Port) SetStamp(on bool) {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	port.stamp = on
}

// Input delivers one received frame to the device: governor admission,
// priority-ordered filter match, and enqueue on the accepting ports.
// The frame must not be modified by the caller afterwards (the wire
// receive loop hands over a fresh copy per datagram).  Safe from any
// goroutine.
//
// Single-queue devices demux inline; multi-queue devices steer the
// frame to its flow's queue worker (mq.go) and return once the
// hand-off lands, blocking — never dropping — when the queue is full.
func (d *Device) Input(frame []byte) {
	if len(d.rxqs) > 1 {
		q := d.opt.Link.SteerQueue(frame, len(d.rxqs))
		select {
		case d.rxqs[q] <- frame:
		case <-d.mqQuit:
		}
		return
	}
	d.input(frame, 0)
}

// input is the demux body: one frame, on one receive queue.
func (d *Device) input(frame []byte, queue int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if queue < len(d.qrx) {
		d.qrx[queue]++
	}
	now := d.clk.Now()
	// Live provenance begins at receive: the wire carries frames
	// verbatim, so there is no cross-process span hand-off and the
	// origin mark is the moment the frame left the UDP socket.
	span := d.tr.SpanOrigin(now, d.name)
	d.received++
	if d.opt.Gov.Enabled && !d.adm.Admit(d.backlog(), &d.opt.Gov) {
		d.shedFrame(span)
		return
	}
	if d.tr != nil {
		d.tr.PacketIn(now, d.name)
	}
	d.tr.SpanMark(span, trace.StageDemux, now)
	d.pktSeen++
	if d.opt.Reorder && d.pktSeen%uint64(d.opt.ReorderEvery) == 0 {
		d.idx.Reorder()
	}

	var ports []*Port
	if d.opt.Mode == pfdev.EvalTable {
		ports = d.tableMatch(frame, d.portScratch[:0])
	} else {
		ports = d.linearMatch(frame, d.portScratch[:0])
	}
	quarSkip := d.scanQuarSkip
	after := d.clk.Now()
	d.tr.SpanMark(span, trace.StageFilter, after)
	if len(ports) == 0 {
		d.kernelDrops++
		reason, label := trace.DropNoMatch, "nomatch"
		if quarSkip {
			reason, label = trace.DropQuota, "quota"
		}
		if d.tr != nil {
			d.tr.Drop(after, d.name, label)
		}
		d.tr.SpanDrop(span, after, d.name, reason)
		d.portScratch = ports[:0]
		return
	}
	for i, port := range ports {
		s := span
		if i > 0 {
			s = d.tr.SpanFork(span, after, d.name)
		}
		port.enqueue(frame, now, s)
	}
	d.portScratch = ports[:0]
}

// linearMatch is pfdev's linear scan without the virtual cost charges:
// priority order, governor admission, copy-all continuation,
// non-copy-all early stop.
func (d *Device) linearMatch(frame []byte, dst []*Port) []*Port {
	now := d.clk.Now()
	accepted := dst
	gov := d.opt.Gov.Enabled
	d.scanQuarSkip = false
	for _, port := range d.idx.Ports() {
		if port.closed || !port.Bound() {
			continue
		}
		if gov && !port.Admit(now, &d.opt.Gov) {
			d.scanQuarSkip = true
			continue
		}
		accept, instrs := port.Eval(frame)
		if d.tr != nil {
			d.tr.FilterEval(now, d.name, port.id, instrs, accept)
		}
		if !accept {
			continue
		}
		accepted = append(accepted, port)
		if !port.copyAll {
			break
		}
	}
	return accepted
}

// tableMatch is pfdev's merged-decision-table scan without the
// virtual cost charges: the table (snapshotted once per match) answers
// which filters can accept, the shared index picks the ports to visit
// and applies the governor as each is reached, and the scan stops at
// the first non-copy-all accept.  Per-port accounting (instrs, fuel,
// FilterEval traces, edge shares) is pfdev's, which is what keeps the
// mode-equivalence test pinning virtual vs live field by field.
func (d *Device) tableMatch(frame []byte, dst []*Port) []*Port {
	now := d.clk.Now()
	d.scanQuarSkip = false
	tbl, visit, edges := d.idx.BeginMatch(frame)

	accepted, treeAccepts := dst, d.treeScratch[:0]
	for _, port := range visit {
		quar, accept, ran, instrs := d.idx.Reach(port, &port.Binding, tbl, frame, now)
		if quar {
			d.scanQuarSkip = true
			continue
		}
		if ran {
			if d.tr != nil {
				d.tr.FilterEval(now, d.name, port.id, instrs, accept)
			}
		} else if accept {
			treeAccepts = append(treeAccepts, port)
		}
		if !accept {
			continue
		}
		accepted = append(accepted, port)
		if !port.copyAll {
			break
		}
	}

	switch {
	case len(treeAccepts) > 0:
		share := edges / len(treeAccepts)
		extra := edges % len(treeAccepts)
		for k, port := range treeAccepts {
			in := share
			if k < extra {
				in++
			}
			port.Charge(in)
			if d.tr != nil {
				d.tr.FilterEval(now, d.name, port.id, in, true)
			}
		}
	case edges > 0:
		if d.tr != nil {
			d.tr.FilterEval(now, d.name, -1, edges, false)
		}
	}
	d.treeScratch = treeAccepts[:0]
	return accepted
}

// TableMaint reports the table-maintenance counters: from-scratch
// builds and incremental patches.
func (d *Device) TableMaint() (builds, patches uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.TableBuilds, d.idx.TablePatches
}

// qlen returns the input-queue depth.
func (port *Port) qlen() int { return len(port.queue) - port.qhead }

func (port *Port) queued() []Packet { return port.queue[port.qhead:] }

func (port *Port) popFront(n int) {
	for i := port.qhead; i < port.qhead+n; i++ {
		port.queue[i] = Packet{}
	}
	port.qhead += n
	port.dev.queuedTotal -= n
	switch {
	case port.qhead == len(port.queue):
		port.queue = port.queue[:0]
		port.qhead = 0
	case port.qhead >= 32 && 2*port.qhead >= len(port.queue):
		kept := copy(port.queue, port.queue[port.qhead:])
		for i := kept; i < len(port.queue); i++ {
			port.queue[i] = Packet{}
		}
		port.queue = port.queue[:kept]
		port.qhead = 0
	}
}

func (port *Port) spanDropCounter(tr *trace.Tracer, reason trace.DropReason) *trace.Counter {
	c := port.spanDropCtrs[reason]
	if c == nil {
		c = tr.Counter(port.dev.name, spanDropName(port.id, reason))
		port.spanDropCtrs[reason] = c
	}
	return c
}

func (port *Port) depthGauge(tr *trace.Tracer) *trace.Gauge {
	if port.qGauge == nil {
		port.qGauge = tr.Gauge(port.dev.name, depthGaugeName(port.id))
	}
	return port.qGauge
}

// enqueue adds a packet to the port queue (device lock held) and wakes
// blocked readers; overflow drops mirror pfdev's accounting.
func (port *Port) enqueue(frame []byte, arrived time.Duration, span uint64) bool {
	d := port.dev
	now := d.clk.Now()
	if port.qlen() >= port.queueLimit {
		port.dropped++
		if d.tr != nil {
			d.tr.Drop(now, d.name, "queue")
			if span != 0 {
				port.spanDropCounter(d.tr, trace.DropPortQueue).Add(1)
			}
		}
		d.tr.SpanDrop(span, now, d.name, trace.DropPortQueue)
		d.tr.SpanPort(span, port.id)
		return false
	}
	pkt := Packet{Data: frame, Drops: port.dropped, arrived: arrived, span: span, qAt: now}
	if port.stamp {
		pkt.Stamp = now
	}
	port.queue = append(port.queue, pkt)
	d.queuedTotal++
	if port.qlen() > port.maxQueued {
		port.maxQueued = port.qlen()
	}
	if d.tr != nil {
		port.depthGauge(d.tr).Set(int64(port.qlen()))
		d.tr.Enqueue(now, d.name, port.id, port.qlen())
	}
	d.tr.SpanMark(span, trace.StageQueue, now)
	d.tr.SpanPort(span, port.id)
	port.readers.Broadcast()
	return true
}

// wait blocks until the port has a queued packet, is closed, or the
// timeout elapses (0 blocks forever, < 0 never blocks).  Device lock
// held on entry and exit.  Timeouts ride the device clock so the wait
// logic itself stays wall-clock free.
func (port *Port) wait(timeout time.Duration) error {
	d := port.dev
	if port.qlen() > 0 {
		return nil
	}
	if port.closed {
		return ErrClosed
	}
	if timeout < 0 {
		return ErrWouldBlock
	}
	var expired bool
	var tm clock.Timer
	if timeout > 0 {
		tm = d.clk.AfterFunc(timeout, func() {
			d.mu.Lock()
			expired = true
			port.readers.Broadcast()
			d.mu.Unlock()
		})
		defer tm.Stop()
	}
	for port.qlen() == 0 && !port.closed && !expired {
		port.readers.Wait()
	}
	switch {
	case port.qlen() > 0:
		return nil
	case port.closed:
		return ErrClosed
	default:
		return ErrTimeout
	}
}

// Read returns the first queued packet, blocking up to timeout
// (0 = forever, negative = non-blocking).
func (port *Port) Read(timeout time.Duration) (Packet, error) {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if port.closed {
		return Packet{}, ErrClosed
	}
	if err := port.wait(timeout); err != nil {
		return Packet{}, err
	}
	pkt := port.queue[port.qhead]
	port.popFront(1)
	now := d.clk.Now()
	port.qresSum += now - pkt.qAt
	port.qresN++
	port.reads++
	if d.tr != nil {
		port.depthGauge(d.tr).Set(int64(port.qlen()))
		d.tr.Dequeue(now, d.name, port.id, port.qlen(), 1)
		d.tr.Deliver(now, d.name, port.id, now-pkt.arrived)
		d.tr.SpanDelivered(pkt.span, now, d.name, port.id)
	}
	return pkt, nil
}

// ReadBatch returns up to max queued packets (0 = all) in one call,
// blocking like Read when the queue is empty.
func (port *Port) ReadBatch(max int, timeout time.Duration) ([]Packet, error) {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if port.closed {
		return nil, ErrClosed
	}
	if err := port.wait(timeout); err != nil {
		return nil, err
	}
	n := port.qlen()
	if max > 0 && n > max {
		n = max
	}
	batch := make([]Packet, n)
	copy(batch, port.queued()[:n])
	port.popFront(n)
	now := d.clk.Now()
	for i := range batch {
		port.qresSum += now - batch[i].qAt
	}
	port.qresN += uint64(n)
	port.batches++
	port.batched += uint64(n)
	if d.tr != nil {
		port.depthGauge(d.tr).Set(int64(port.qlen()))
		d.tr.Dequeue(now, d.name, port.id, port.qlen(), n)
		for _, pkt := range batch {
			d.tr.Deliver(now, d.name, port.id, now-pkt.arrived)
			d.tr.SpanDelivered(pkt.span, now, d.name, port.id)
		}
	}
	return batch, nil
}

// Stats reports the port's statistics in the same block the simulated
// device fills; ring fields stay zero (live mode has no mapped rings).
func (port *Port) Stats() pfdev.PortStats {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	return port.statsLocked()
}

func (port *Port) statsLocked() pfdev.PortStats {
	var res time.Duration
	if port.qresN > 0 {
		res = port.qresSum / time.Duration(port.qresN)
	}
	ps := port.FilterStats()
	ps.ID = port.id
	ps.Queued = port.qlen()
	ps.MaxQueued = port.maxQueued
	ps.Dropped = port.dropped
	ps.Reads = port.reads
	ps.BatchReads = port.batches
	ps.BatchPackets = port.batched
	ps.AvgResidency = res
	return ps
}

// Close releases the port; blocked readers fail with ErrClosed and
// still-queued packets die as DropPortClose.
func (port *Port) Close() {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	port.closeLocked()
}

func (port *Port) closeLocked() {
	if port.closed {
		return
	}
	d := port.dev
	port.closed = true
	d.queuedTotal -= port.qlen()
	now := d.clk.Now()
	for _, pkt := range port.queued() {
		d.tr.SpanDrop(pkt.span, now, d.name, trace.DropPortClose)
	}
	port.queue = nil
	port.qhead = 0
	port.readers.Broadcast()
	delete(d.byID, port.id)
	d.idx.DropPort(&port.Binding)
}

// PortStats returns the statistics blocks of every open port in id
// order.
func (d *Device) PortStats() []pfdev.PortStats {
	d.mu.Lock()
	ports := d.idx.Ports()
	stats := make([]pfdev.PortStats, 0, len(ports))
	for _, port := range ports {
		stats = append(stats, port.statsLocked())
	}
	d.mu.Unlock()
	// The ports are in scan order; sort the snapshot with the packet path
	// unlocked.
	slices.SortFunc(stats, func(a, b pfdev.PortStats) int { return a.ID - b.ID })
	return stats
}

// GovStats reports the governor's device-wide statistics.
func (d *Device) GovStats() pfdev.GovStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.GovReport(&d.adm, d.backlog())
}

// Counts is the device-level receive accounting.
type Counts struct {
	Received    uint64 `json:"received"`     // frames handed to Input
	KernelDrops uint64 `json:"kernel_drops"` // no-match / quota / admission
	QueuedNow   int    `json:"queued_now"`   // packets on port queues

	// Queues and QueueRx report the multi-queue demux spread; both are
	// zero/nil on a single-queue device.
	Queues  int      `json:"queues,omitempty"`
	QueueRx []uint64 `json:"queue_rx,omitempty"`
}

// Counts returns the device-level counters.
func (d *Device) Counts() Counts {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := Counts{Received: d.received, KernelDrops: d.kernelDrops, QueuedNow: d.queuedTotal}
	if len(d.rxqs) > 1 {
		c.Queues = len(d.rxqs)
		c.QueueRx = append([]uint64(nil), d.qrx...)
	}
	return c
}

// KernelDrops returns the no-match/quota/admission drop count.
func (d *Device) KernelDrops() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kernelDrops
}

// Close shuts the device: every port closes (waking its readers),
// further Input calls are discarded, and multi-queue workers stop.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	for len(d.idx.Ports()) > 0 {
		d.idx.Ports()[0].closeLocked()
	}
	d.mu.Unlock()
	d.stopQueues()
}
