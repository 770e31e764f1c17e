// Package live hosts the packet-filter engine on real time and real
// goroutines: the same filter language, evaluation modes, priority
// scan, busy-first reordering, resource governor and provenance spans
// as the simulated device (package pfdev), driven by frames arriving
// from a loopback-UDP wire (wire.go) instead of the virtual Ethernet.
//
// The simulated device charges virtual CPU for every evaluation step
// so the paper's §6 numbers are reproducible; the live device skips
// the charging (wall time is measured, not modeled) but keeps every
// verdict, counter and drop reason identical — the mode-equivalence
// test pins that the two devices, given the same filter set and packet
// sequence, fill in the same pfdev.PortStats field by field.
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
	// FullRebuild disables incremental decision-table maintenance,
	// mirroring pfdev.Options.FullRebuild: every churn event discards
	// the table and the next match rebuilds it from scratch.
	FullRebuild bool
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

	ports   []*Port       // sorted: priority desc, busy-first within priority
	byID    map[int]*Port // open ports by id
	nextID  int
	pktSeen uint64

	// table is the published merged evaluator, maintained incrementally
	// exactly as in pfdev: churn patches it with Insert/Remove and
	// swaps the pointer under the mutex; a match snapshots the pointer
	// once and finishes on that consistent table even if a governor
	// transition patches mid-scan.
	table *filter.Table

	// Scan index, mirroring pfdev's: slotPort maps the published
	// table's slots to their ports (valid whenever table is non-nil),
	// Port.rank is the port's position in ports, renumbered lazily
	// behind rankDirty, and matchSeq stamps the ports the current
	// match's tree walk accepted.  scanVisits counts ports the table
	// scan reached (tests only).
	slotPort   []*Port
	rankDirty  bool
	matchSeq   uint64
	scanVisits uint64

	// Table-maintenance accounting, mirroring pfdev's (deterministic
	// filter.Table.Work units).
	tableBuilds  uint64
	tablePatches uint64
	tableWork    uint64

	queuedTotal    int
	shedding       bool
	admissionSheds uint64
	scanQuarSkip   bool

	received    uint64 // frames handed to Input
	kernelDrops uint64 // no-match / quota / admission drops

	treeScratch []*Port
	portScratch []*Port
	scanScratch []*Port

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
	dev *Device
	id  int

	priority uint8
	prog     filter.Program
	pv       *filter.Prevalidated
	compiled *filter.Compiled
	// fp and slot mirror pfdev's table-mode port state: the flat
	// compilation answers quarantine-exit transition packets, and slot
	// is the port's stable slot in the published table (-1 when not
	// resident).  rank and treeHit belong to the device's scan index.
	fp      *filter.FlatProg
	slot    int
	rank    int
	treeHit uint64

	queue      []Packet
	qhead      int
	queueLimit int
	maxQueued  int
	dropped    uint64

	copyAll bool
	stamp   bool
	closed  bool

	matches uint64
	instrs  uint64
	reads   uint64
	batches uint64
	batched uint64

	// Governor state, mirroring pfdev's port fields.
	govTokens   float64
	govRefill   time.Duration
	govBound    int
	quarUntil   time.Duration
	quarPenalty time.Duration
	tableActive bool
	fuelSpent   uint64
	quarantines uint64
	quarSkips   uint64

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
		dev:         d,
		id:          d.nextID,
		queueLimit:  DefaultQueueLimit,
		tableActive: true,
		slot:        -1,
	}
	port.readers = sync.NewCond(&d.mu)
	if g := d.opt.Gov; g.Enabled {
		// The bucket starts full at open time; rebinding a filter does
		// not refill it (same anti-laundering rule as pfdev).
		port.govTokens = float64(g.Burst)
		port.govRefill = d.clk.Now()
	}
	d.nextID++
	d.ports = append(d.ports, port)
	d.byID[port.id] = port
	d.sortPorts()
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
	opt := filter.ValidateOptions{Extensions: d.opt.Extensions}
	switch d.opt.Mode {
	case pfdev.EvalFast:
		pv, err := filter.Prevalidate(f.Program, opt)
		if err != nil {
			return err
		}
		pv.SetEnv(filter.Env{HeaderWords: d.opt.Link.HeaderWords()})
		port.pv = pv
	case pfdev.EvalCompiled:
		c, err := filter.Compile(f.Program, opt,
			filter.Env{HeaderWords: d.opt.Link.HeaderWords()})
		if err != nil {
			return err
		}
		port.compiled = c
	case pfdev.EvalTable:
		// Table-mode validation happens on insert; a failing program
		// matches nothing.  The flat compilation answers for
		// quarantine-exit transition packets, exactly as in pfdev.
		if fp, err := filter.CompileFlat(f.Program, filter.ValidateOptions{}, filter.Env{}); err == nil {
			port.fp = fp
		} else {
			port.fp = nil
		}
	default:
		// The checked interpreter accepts anything and fails per
		// packet.
	}
	d.tableRemovePort(port)
	port.prog = f.Program.Clone()
	port.priority = f.Priority
	if d.opt.Gov.Enabled {
		port.govBound = pfdev.GovBound(d.opt.Mode, port.prog, opt)
	}
	d.sortPorts()
	if !d.opt.Gov.Enabled || port.tableActive {
		d.tableInsertPort(port)
	}
	return nil
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

// eval applies the port's filter to a frame, with the identical
// per-mode instruction-unit scaling the simulated device charges.
func (port *Port) eval(frame []byte) (bool, int) {
	switch port.dev.opt.Mode {
	case pfdev.EvalFast:
		r := port.pv.Run(frame)
		return r.Accept, (r.Instrs*3 + 4) / 5
	case pfdev.EvalCompiled:
		ok := port.compiled.Run(frame)
		return ok, (port.compiled.Info().Instrs + 2) / 3
	default:
		var r filter.Result
		if port.dev.opt.Extensions {
			r = filter.RunExt(port.prog, frame,
				filter.Env{HeaderWords: port.dev.opt.Link.HeaderWords()})
		} else {
			r = filter.Run(port.prog, frame)
		}
		return r.Accept, r.Instrs
	}
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
	if !d.admitFrame() {
		d.shedFrame(span)
		return
	}
	if d.tr != nil {
		d.tr.PacketIn(now, d.name)
	}
	d.tr.SpanMark(span, trace.StageDemux, now)
	d.pktSeen++
	if d.opt.Reorder && d.pktSeen%uint64(d.opt.ReorderEvery) == 0 {
		d.reorder()
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

// linearMatch mirrors pfdev's scan: priority order, governor
// admission, copy-all continuation, non-copy-all early stop.
func (d *Device) linearMatch(frame []byte, dst []*Port) []*Port {
	now := d.clk.Now()
	accepted := dst
	gov := d.opt.Gov.Enabled
	d.scanQuarSkip = false
	for _, port := range d.ports {
		if port.closed || port.prog == nil {
			continue
		}
		if gov && !port.govAdmit(now, &d.opt.Gov) {
			d.scanQuarSkip = true
			continue
		}
		accept, instrs := port.eval(frame)
		port.instrs += uint64(instrs)
		if gov {
			port.govCharge(instrs)
		}
		if d.tr != nil {
			d.tr.FilterEval(now, d.name, port.id, instrs, accept)
		}
		if !accept {
			continue
		}
		port.matches++
		accepted = append(accepted, port)
		if !port.copyAll {
			break
		}
	}
	return accepted
}

// tableMatch mirrors pfdev's v2 merged-decision-table path line for
// line: the table (snapshotted once per match) answers which filters
// can accept, while the device drives the scan in d.ports order —
// over just the candidate ports (scanSet) with the governor off, over
// all of d.ports with it on, deciding admission as each port is
// reached and patching quarantine transitions into the published
// table — evaluating reached fallbacks lazily and stopping at the
// first non-copy-all accept.  Per-port accounting (instrs, fuel,
// FilterEval traces, edge shares) is identical to pfdev's, which is
// what keeps the mode-equivalence test pinning virtual vs live field
// by field.
func (d *Device) tableMatch(frame []byte, dst []*Port) []*Port {
	now := d.clk.Now()
	gov := d.opt.Gov.Enabled
	d.scanQuarSkip = false
	if d.table == nil {
		d.rebuildTable()
	}
	tbl := d.table // this match's immutable snapshot
	slots, tree, edges := tbl.Candidates(frame)
	d.matchSeq++
	for _, slot := range slots[:tree] {
		d.slotPort[slot].treeHit = d.matchSeq
	}
	visit := d.ports
	if !gov {
		visit = d.scanSet(slots)
	}

	accepted, treeAccepts := dst, d.treeScratch[:0]
	for _, port := range visit {
		d.scanVisits++
		if port.closed || port.prog == nil {
			continue
		}
		slot := port.slot
		if gov {
			if !port.govAdmit(now, &d.opt.Gov) {
				d.scanQuarSkip = true
				if port.tableActive {
					port.tableActive = false
					d.tableRemovePort(port)
				}
				continue
			}
			if !port.tableActive {
				port.tableActive = true
				d.tableInsertPort(port)
			}
		}

		var accept bool
		ran := false
		instrs := 0
		switch {
		case slot >= 0:
			if fp := tbl.Fallback(slot); fp != nil {
				r := fp.Run(frame)
				accept, instrs, ran = r.Accept, r.Instrs, true
			} else {
				accept = port.treeHit == d.matchSeq
			}
		case port.fp != nil:
			r := port.fp.Run(frame)
			accept, instrs, ran = r.Accept, r.Instrs, true
		}
		if ran {
			port.instrs += uint64(instrs)
			if gov {
				port.govCharge(instrs)
			}
			if d.tr != nil {
				d.tr.FilterEval(now, d.name, port.id, instrs, accept)
			}
		} else if accept {
			treeAccepts = append(treeAccepts, port)
		}
		if !accept {
			continue
		}
		port.matches++
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
			port.instrs += uint64(in)
			if gov {
				port.govCharge(in)
			}
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

// scanSet maps a match's candidate slots to their ports in scan order
// (rank = position in d.ports).  With the governor off these are the
// only ports whose visit has any effect, so the scan costs O(accepts +
// fallbacks) instead of O(ports).
func (d *Device) scanSet(slots []int) []*Port {
	set := d.scanScratch[:0]
	for _, slot := range slots {
		set = append(set, d.slotPort[slot])
	}
	if d.rankDirty {
		for i, port := range d.ports {
			port.rank = i
		}
		d.rankDirty = false
	}
	slices.SortFunc(set, func(a, b *Port) int { return a.rank - b.rank })
	d.scanScratch = set[:0]
	return set
}

// rebuildTable compiles the full filter set from scratch — the cold
// path, as in pfdev.
func (d *Device) rebuildTable() {
	var filters []filter.Filter
	gov := d.opt.Gov.Enabled
	for _, port := range d.ports {
		port.slot = -1
	}
	var included []*Port
	for _, port := range d.ports {
		if port.closed || port.prog == nil || (gov && !port.tableActive) {
			continue
		}
		filters = append(filters, filter.Filter{Priority: port.priority, Program: port.prog})
		included = append(included, port)
	}
	d.table = filter.BuildTable(filters)
	for i, port := range included {
		port.slot = i
	}
	d.slotPort = included
	d.tableBuilds++
	d.tableWork += uint64(d.table.Work())
}

// tableInsertPort patches the port's filter into the published table,
// mirroring pfdev.
func (d *Device) tableInsertPort(port *Port) {
	if d.opt.Mode != pfdev.EvalTable || port.closed || port.prog == nil {
		return
	}
	if d.opt.FullRebuild {
		d.table = nil
		return
	}
	if d.table == nil {
		d.rebuildTable()
		return
	}
	before := d.table.Work()
	nt, slot := d.table.Insert(filter.Filter{Priority: port.priority, Program: port.prog})
	d.table = nt
	port.slot = slot
	if slot == len(d.slotPort) {
		d.slotPort = append(d.slotPort, port)
	} else {
		d.slotPort[slot] = port
	}
	d.tablePatches++
	d.tableWork += uint64(nt.Work() - before)
}

// tableRemovePort patches the port's filter out of the published
// table, mirroring pfdev.
func (d *Device) tableRemovePort(port *Port) {
	if d.opt.Mode != pfdev.EvalTable {
		return
	}
	if d.opt.FullRebuild {
		d.table = nil
		port.slot = -1
		return
	}
	if d.table == nil || port.slot < 0 {
		return
	}
	before := d.table.Work()
	d.table = d.table.Remove(port.slot)
	d.slotPort[port.slot] = nil
	port.slot = -1
	d.tablePatches++
	d.tableWork += uint64(d.table.Work() - before)
}

// TableWork returns the cumulative decision-table construction work in
// deterministic filter.Table.Work units.
func (d *Device) TableWork() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tableWork
}

// TableMaint reports the table-maintenance counters: from-scratch
// builds and incremental patches.
func (d *Device) TableMaint() (builds, patches uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tableBuilds, d.tablePatches
}

// sortPorts re-sorts priority descending, stable within priorities.
// The v2 table is scan-order-free, so sorting leaves it untouched.
func (d *Device) sortPorts() {
	d.rankDirty = true
	for i := 1; i < len(d.ports); i++ {
		for j := i; j > 0 && d.ports[j-1].priority < d.ports[j].priority; j-- {
			d.ports[j-1], d.ports[j] = d.ports[j], d.ports[j-1]
		}
	}
}

// reorder moves busier filters earlier within each equal-priority
// group (§3.2), identically to pfdev; the published table survives.
func (d *Device) reorder() {
	for i := 1; i < len(d.ports); i++ {
		for j := i; j > 0 &&
			d.ports[j-1].priority == d.ports[j].priority &&
			d.ports[j-1].matches < d.ports[j].matches; j-- {
			d.ports[j-1], d.ports[j] = d.ports[j], d.ports[j-1]
			d.rankDirty = true
		}
	}
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
	return pfdev.PortStats{
		ID:           port.id,
		Priority:     port.priority,
		Queued:       port.qlen(),
		MaxQueued:    port.maxQueued,
		Dropped:      port.dropped,
		Matched:      port.matches,
		FilterInstrs: port.instrs,
		Reads:        port.reads,
		BatchReads:   port.batches,
		BatchPackets: port.batched,

		FuelSpent:       port.fuelSpent,
		Quarantines:     port.quarantines,
		QuarantineSkips: port.quarSkips,
		AvgResidency:    res,
	}
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
	for i, q := range d.ports {
		if q == port {
			d.ports = append(d.ports[:i], d.ports[i+1:]...)
			d.rankDirty = true
			break
		}
	}
	delete(d.byID, port.id)
	d.tableRemovePort(port)
}

// PortStats returns the statistics blocks of every open port in id
// order.
func (d *Device) PortStats() []pfdev.PortStats {
	d.mu.Lock()
	stats := make([]pfdev.PortStats, 0, len(d.ports))
	for _, port := range d.ports {
		stats = append(stats, port.statsLocked())
	}
	d.mu.Unlock()
	// d.ports is in scan order; sort the snapshot with the packet path
	// unlocked.
	slices.SortFunc(stats, func(a, b pfdev.PortStats) int { return a.ID - b.ID })
	return stats
}

// GovStats reports the governor's device-wide statistics.
func (d *Device) GovStats() pfdev.GovStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	gs := pfdev.GovStats{
		Shedding:       d.shedding,
		Backlog:        d.backlog(),
		AdmissionSheds: d.admissionSheds,
	}
	for _, port := range d.ports {
		gs.Quarantines += port.quarantines
		gs.QuarantineSkips += port.quarSkips
		gs.FuelSpent += port.fuelSpent
	}
	return gs
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
	for len(d.ports) > 0 {
		d.ports[0].closeLocked()
	}
	d.mu.Unlock()
	d.stopQueues()
}
