// Package live hosts the packet-filter engine on real time and real
// goroutines, driven by frames arriving from a loopback-UDP wire
// (wire.go) instead of the virtual Ethernet.
//
// The engine is pfdev's own code, not a copy: each Port embeds a
// pfdev.Binding (the filter validated or compiled per evaluation mode,
// its per-mode evaluation and pricing, match counters and the
// governor's token bucket and quarantine) and a pfdev.PortQueue (the
// input queue, its loss count, read and residency accounting and trace
// instruments); the Device keeps its scan order and decision table in a
// pfdev.TableIndex, whose Match is the one §3.2 match loop, and its
// overload controller in a pfdev.Admission.  Those types take the
// caller's clock reading, so here they run on wall time.  Match returns
// a tally of the work it did, which the simulated device prices in
// virtual CPU (the paper's §6 numbers) and this one ignores beyond the
// quarantine-skip flag: it measures wall time instead.  What stays in
// this package is the clock, the locking and the blocking reads.  The
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
	pktSeen uint64

	// Governor state: the admission controller is pfdev's; the backlog
	// it is fed is queuedTotal (gov.go).
	adm         pfdev.Admission
	queuedTotal int

	received    uint64 // frames handed to Input
	kernelDrops uint64 // no-match / quota / admission drops

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
	d.idx.Setup(opt.Mode, opt.Extensions, filter.Env{HeaderWords: opt.Link.HeaderWords()}, &d.opt.Gov)
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
// timestamp and the cumulative drop count — pfdev's packet.
type Packet = pfdev.Packet

// Port is one open port on the live device.
type Port struct {
	dev    *Device
	closed bool

	// Binding is the bound filter, its scan-index place, its match
	// counters and its governor bucket; PortQueue is the input queue and
	// its accounting — the same state as a simulated port's.
	pfdev.Binding
	pfdev.PortQueue

	readers sync.Cond // on dev.mu; broadcast on enqueue/close/timeout
}

// DefaultQueueLimit matches pfdev's default per-port input queue bound.
const DefaultQueueLimit = pfdev.DefaultQueueLimit

// Open opens a new port on the device.
func (d *Device) Open() *Port {
	d.mu.Lock()
	defer d.mu.Unlock()
	port := &Port{dev: d}
	port.readers.L = &d.mu
	port.InitQueue(d.name, &d.queuedTotal)
	d.idx.AddPort(port, &port.Binding, d.clk.Now())
	d.byID[port.ID()] = port
	return port
}

// Port returns the open port with the given id, or nil.
func (d *Device) Port(id int) *Port {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.byID[id]
}

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
	port.PortQueue.SetQueueLimit(n)
}

// SetCopyAll requests that packets accepted by this port's filter also
// be submitted to lower-priority filters (§3.2).
func (port *Port) SetCopyAll(on bool) {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	port.Binding.SetCopyAll(on)
}

// SetStamp enables receive timestamping.
func (port *Port) SetStamp(on bool) {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	port.PortQueue.SetStamp(on)
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
		d.shedFrame(span, now)
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

	// The match runs on the arrival reading: governor admission and
	// FilterEval timestamps share the instant the frame entered, as in
	// the simulator.  Untraced, that one reading also stamps the drop or
	// the enqueue; only a tracer pays for a post-match reading, which
	// keeps its demux, filter and queue marks in order.
	m := pfdev.Match{Now: now, Tracer: d.tr, Host: d.name}
	ports := d.idx.Match(frame, d.portScratch[:0], &m)
	after := now
	if d.tr != nil {
		after = d.clk.Now()
		d.tr.SpanMark(span, trace.StageFilter, after)
	}
	if len(ports) == 0 {
		d.kernelDrops++
		pfdev.DropUnmatched(d.tr, after, d.name, span, m.QuarSkip)
		d.portScratch = ports[:0]
		return
	}
	for i, port := range ports {
		s := span
		if i > 0 {
			s = d.tr.SpanFork(span, after, d.name)
		}
		port.enqueue(frame, now, after, s)
	}
	d.portScratch = ports[:0]
}

// TableMaint reports the table-maintenance counters: from-scratch
// builds and incremental patches.
func (d *Device) TableMaint() (builds, patches uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.TableBuilds, d.idx.TablePatches
}

// enqueue adds a packet that arrived at arrived to the port queue at
// now (device lock held) and wakes blocked readers; overflow drops
// mirror pfdev's accounting.
func (port *Port) enqueue(frame []byte, arrived, now time.Duration, span uint64) {
	d := port.dev
	if port.Full(0) {
		port.Overflow(d.tr, now, port.ID(), span, trace.DropPortQueue)
		return
	}
	port.Push(d.tr, now, port.ID(), frame, arrived, span)
	port.readers.Broadcast()
}

// wait blocks until the port has a queued packet, is closed, or the
// timeout elapses (0 blocks forever, < 0 never blocks).  Device lock
// held on entry and exit.  Timeouts ride the device clock so the wait
// logic itself stays wall-clock free.
func (port *Port) wait(timeout time.Duration) error {
	d := port.dev
	if port.closed {
		return ErrClosed
	}
	if port.Len() > 0 {
		return nil
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
	for port.Len() == 0 && !port.closed && !expired {
		port.readers.Wait()
	}
	switch {
	case port.Len() > 0:
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
	if err := port.wait(timeout); err != nil {
		return Packet{}, err
	}
	now := d.clk.Now()
	pkt := port.TakeOne(now)
	port.Delivered(d.tr, now, port.ID(), pkt)
	return pkt, nil
}

// ReadBatch returns up to max queued packets (0 = all) in one call,
// blocking like Read when the queue is empty.
func (port *Port) ReadBatch(max int, timeout time.Duration) ([]Packet, error) {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := port.wait(timeout); err != nil {
		return nil, err
	}
	n := port.Len()
	if max > 0 && n > max {
		n = max
	}
	batch := make([]Packet, n)
	now := d.clk.Now()
	port.TakeBatch(batch, now)
	port.Delivered(d.tr, now, port.ID(), batch...)
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
	ps := port.FilterStats()
	port.QueueStats(&ps)
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
	port.Discard(d.tr, d.clk.Now(), trace.DropPortClose)
	port.readers.Broadcast()
	delete(d.byID, port.ID())
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
