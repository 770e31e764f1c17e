// Package pfdev implements the packet filter pseudodevice of §3-§4:
// a kernel-resident demultiplexer layered above a network interface
// driver.  User processes open ports, bind filter programs with
// priorities, and read/write complete data-link frames; the device
// applies the filters of every port to each received packet in order
// of decreasing priority and queues the packet on the first port whose
// filter accepts it (figure 4-1), optionally letting it fall through
// to lower-priority filters as well.
//
// The device runs inside the sim kernel: filter evaluation, queueing
// and timestamping consume virtual kernel CPU on the host, and reads,
// writes and ioctls by processes charge system-call and copy costs, so
// every number the paper's §6 measures is observable.
package pfdev

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// EvalMode selects how the device evaluates filter programs; the modes
// trace the paper's implementation (§4) and its §7 improvement
// proposals, and the ablation benchmarks compare them.
type EvalMode int

const (
	// EvalChecked is the production interpreter with full
	// per-instruction checking (§4).
	EvalChecked EvalMode = iota
	// EvalFast validates programs at bind time and skips the
	// per-instruction checks (§7, "all these tests can be performed
	// ahead of time").
	EvalFast
	// EvalCompiled compiles programs at bind time (§7, "compiling
	// filters into machine code").  It runs the same flat register
	// code as EvalFast; the two differ only in the price Binding.Eval
	// and the governor charge per evaluation.
	EvalCompiled
	// EvalTable merges all bound filters into one decision table
	// (§7, "the best possible performance").  Virtual cost is
	// charged per decision-tree edge rather than per instruction.
	EvalTable
)

// KernelProtocol lets a kernel-resident protocol stack (package inet)
// claim frames before the packet filter sees them, matching the
// paper's deployment: "The packet filter is called from the network
// interface drivers upon receipt of packets not destined for
// kernel-resident protocols."
type KernelProtocol interface {
	// Claim returns true if the kernel stack consumed the frame.
	Claim(frame []byte) bool
}

// Chain combines kernel protocols: the first to claim a frame wins.
// Figure 3-3's coexistence — kernel IP plus kernel VMTP plus the
// packet filter — is a two-element chain.
func Chain(protos ...KernelProtocol) KernelProtocol {
	return chain(protos)
}

type chain []KernelProtocol

func (c chain) Claim(frame []byte) bool {
	for _, kp := range c {
		if kp != nil && kp.Claim(frame) {
			return true
		}
	}
	return false
}

// Options configures a Device.
type Options struct {
	Mode EvalMode
	// Reorder enables the §3.2 optimization: "the interpreter may
	// occasionally reorder such filters to place the busier ones
	// first" among equal-priority filters.
	Reorder bool
	// ReorderEvery is the packet interval between reorder passes
	// (default 64).
	ReorderEvery int
	// SeeAll delivers every frame to the packet filter even if a
	// kernel-resident protocol claimed it, so monitors can watch
	// kernel traffic too.
	SeeAll bool
	// Extensions permits the §7 extended instructions in bound
	// programs.
	Extensions bool
	// PrivilegedPriority, when non-zero, restricts filters at or
	// above that priority to ports opened with OpenPrivileged —
	// the security mechanism §3.2 describes: "An earlier version of
	// the packet filter did provide some security by restricting
	// the use of high-priority filters to certain users, allowing
	// these users first rights to all packets."  (The paper notes
	// it went unused; it is here for completeness.)
	PrivilegedPriority uint8
	// CoalesceBudget, when > 1, enables NAPI-style interrupt
	// coalescing on the interface: up to this many back-to-back
	// frames are delivered per kernel entry, with the fixed
	// driver/filter/packet-filter setup charged once per burst and
	// blocked readers woken once per burst.  0 or 1 hands every frame
	// up alone, byte-for-byte as without coalescing.
	CoalesceBudget int
	// CoalesceDelay is the interrupt-moderation timer: after a
	// receive poll completes, the interface holds further frames up
	// to this much virtual time hoping to fill another burst.  0
	// means pure poll-mode batching — bursts form only from frames
	// that arrive while a previous burst is being serviced, adding
	// no latency.
	CoalesceDelay time.Duration
	// Gov configures the resource governor (gov.go): per-port CPU
	// token buckets with quarantine, and overload admission control
	// at demux entry.  The zero value disables it and leaves every
	// receive path byte-identical to the ungoverned device.
	Gov GovConfig
	// Queues, when > 1, enables RSS-style multi-queue receive: the
	// interface is configured with this many receive queues, each
	// frame is steered to one by the flow hash (one flow → one queue,
	// preserving per-flow order by construction), and each queue gets
	// its own demux context — its own pending-delivery queue, burst
	// state and kernel entries — running on its own parallel kernel
	// lane.  All queues match against the same atomically-published
	// decision-table snapshot.  0 or 1 leaves the device the
	// byte-identical single-queue world.
	Queues int
}

// Device is one packet-filter pseudodevice instance bound to one
// network interface.
type Device struct {
	host *sim.Host
	nic  *ethersim.NIC
	opt  Options
	kern KernelProtocol

	// The scan order (ports), the published decision table and its
	// scan index, and the match loops (index.go).
	portIndex
	pktSeen uint64

	// reorderPending defers a §3.2 busy-first reorder that came due in
	// the middle of a coalesced burst to the burst boundary, so every
	// frame within one burst observes a single scan order.
	reorderPending bool

	// Burst bookkeeping: curBurst is non-zero while input is matching
	// a coalesced burst of two or more frames; the match loops stamp
	// ports and the table with it, so the fixed FilterApply setup is
	// charged once per burst instead of once per frame.
	burstSeq uint64
	curBurst uint64

	// queueCap, when non-zero, caps the effective input-queue limit
	// of every port on the device — the fault engine's "port-queue
	// pressure" knob.
	queueCap int

	// rx holds one demux context per receive queue (always at least
	// one).  Each context owns its own pending-delivery queue and
	// burst bookkeeping, because kernel grants complete in request
	// order only within one lane — across lanes completions
	// interleave, so per-queue FIFOs are what keep the "head of the
	// pending queue is the frame whose charge just retired" invariant
	// true.  The match scratch slices stay on the device: matching is
	// synchronous within one event callback, and the event loop runs
	// callbacks one at a time even when lanes overlap in virtual time.
	rx          []*rxCtx
	wakeScratch []*Port

	// Governor state (gov.go): queuedTotal tracks packets queued
	// across all ports O(1).
	Admission
	queuedTotal int

	// KernelDrops counts packets that matched no filter or
	// overflowed a port queue.
	KernelDrops uint64
}

// portIndex is the device's table index over its ports.
type portIndex = TableIndex[*Port]

// rxCtx is one receive queue's demux context: the per-queue pending
// delivery FIFO, driver-entry bookkeeping, pre-bound completion
// callbacks, kernel lane and KernelTime tags.  A single-queue device has exactly
// one, with lane -1 (the main CPU) and the plain "filter"/"pf" tags —
// byte-identical to the pre-multi-queue device.
type rxCtx struct {
	d   *Device
	idx int
	// lane is the host kernel lane this queue's filter and pf work
	// runs on (-1 = the main CPU), matching the queue's driver lane
	// so one frame's whole kernel path stays on one parallel thread.
	lane      int
	filterTag string
	pfTag     string

	pend     []delivery
	pendHead int
	// entries holds, per driver entry awaiting its "pf" charge, the
	// pending deliveries it covers.
	entries   []entry
	entryHead int

	deliverFn    func()
	markFilterFn func()
}

// entry is one driver entry's share of the pending FIFO: n
// deliveries, and whether the entry was a lone frame (whose ports are
// woken as each is queued) rather than a burst (whose ports are woken
// once, at the end).
type entry struct {
	n    int
	lone bool
}

// Attach creates a packet-filter device on nic and installs its
// receive handler, demultiplexing to kern (may be nil) first.
func Attach(nic *ethersim.NIC, kern KernelProtocol, opt Options) *Device {
	if opt.ReorderEvery <= 0 {
		opt.ReorderEvery = 64
	}
	opt.Gov = opt.Gov.WithDefaults()
	if opt.Queues < 1 {
		opt.Queues = 1
	}
	d := &Device{host: nic.Host(), nic: nic, opt: opt, kern: kern}
	d.Setup(opt.Mode, opt.Extensions, filter.Env{HeaderWords: nic.Network().Link().HeaderWords()},
		&d.opt.Gov)
	nic.SetQueues(opt.Queues)
	d.rx = make([]*rxCtx, opt.Queues)
	for i := range d.rx {
		rx := &rxCtx{d: d, idx: i, lane: nic.LaneFor(i), filterTag: "filter", pfTag: "pf"}
		if opt.Queues > 1 {
			rx.filterTag = fmt.Sprintf("filter.q%d", i)
			rx.pfTag = fmt.Sprintf("pf.q%d", i)
		}
		rx.deliverFn = rx.deliver
		rx.markFilterFn = rx.markFilter
		d.rx[i] = rx
	}
	nic.Handler = d.input
	nic.SetCoalesce(opt.CoalesceBudget, opt.CoalesceDelay)
	// Port state lives in the kernel and dies with the machine:
	// every open port is closed on a crash, so surviving process
	// goroutines see ErrClosed and must re-open and re-bind their
	// filters on recovery.
	nic.Host().OnCrash(d.crash)
	return d
}

// Queues returns the number of receive-queue demux contexts.
func (d *Device) Queues() int { return len(d.rx) }

// crash closes every port in event-loop context (no process to charge
// syscalls to): queues are flushed, blocked readers and selectors wake
// to find ErrClosed.
func (d *Device) crash() {
	tr := d.host.Sim().Tracer()
	now := d.host.Clock().Now()
	ports := d.ports
	d.ports, d.binds, d.table = nil, nil, nil
	d.reorderPending = false
	// Matched-but-undelivered frames die with the kernel: their "pf"
	// completions were dropped from the host's interrupt and lane
	// queues, so every queue's pending FIFO must empty in step.
	for _, rx := range d.rx {
		for i := rx.pendHead; i < len(rx.pend); i++ {
			tr.SpanDrop(rx.pend[i].span, now, d.host.Name(), trace.DropCrash)
		}
		rx.pend = rx.pend[:0]
		rx.pendHead = 0
		rx.entries = rx.entries[:0]
		rx.entryHead = 0
	}
	d.shedding = false
	for _, port := range ports {
		port.Discard(tr, now, trace.DropCrash)
		port.closed = true
		// Its slot died with the table: a later SetFilter on the dead
		// port must not patch that slot out of the table rebuilt for
		// the re-opened ports.
		port.slot = -1
		// Ring attachments die with the kernel's port state; the
		// segment itself is user memory and survives, free for the
		// re-opened port to map again.
		port.detachRing()
		port.readers.WakeAll(d.host)
		for _, w := range port.watchers {
			w.WakeAll(d.host)
		}
	}
	// Frames matched to a port after it closed were queued on it too;
	// the kernel's count restarts from nothing.
	d.queuedTotal = 0
}

// SetQueueCap caps (or, with 0, uncaps) the effective input-queue
// length of every port on the device, on top of each port's own
// limit.  The fault engine uses it to model transient kernel-memory
// pressure on the port queues.
func (d *Device) SetQueueCap(n int) { d.queueCap = n }

// Host returns the host the device lives on.
func (d *Device) Host() *sim.Host { return d.host }

// NIC returns the underlying interface.
func (d *Device) NIC() *ethersim.NIC { return d.nic }

// Status is the §3.3 control/status information: "the type of the
// underlying data-link layer; the lengths of a data-link layer address
// and of a data-link layer header; the maximum packet size ...; the
// data-link address for incoming packets; and the address used for
// data-link layer broadcasts".
type Status struct {
	LinkType  ethersim.LinkType
	HeaderLen int
	AddrLen   int
	MaxPacket int
	Addr      ethersim.Addr
	Broadcast ethersim.Addr
}

// Status returns the device status block.  Process context; charges an
// ioctl.
func (d *Device) Status(p *sim.Proc) Status {
	p.Syscall("pf")
	l := d.nic.Network().Link()
	return Status{
		LinkType:  l,
		HeaderLen: l.HeaderLen(),
		AddrLen:   l.AddrLen(),
		MaxPacket: l.MaxFrame(),
		Addr:      d.nic.Addr(),
		Broadcast: l.BroadcastAddr(),
	}
}

// input is the NIC receive handler (event-loop context, driver cost
// already charged): one driver entry's frames, a lone frame or a
// coalesced burst.  Their receive queue — chosen by the NIC's steering
// hash — selects the demux context.
func (d *Device) input(frames [][]byte, spans []uint64, queue int) {
	d.rx[queue].input(frames, spans)
}

// claim offers the frame (and its span) to the kernel protocol chain.
// Under SeeAll the span is not offered: the packet filter still sees
// the frame, so the span follows the pf path and the kernel's copy is
// a non-event for provenance.
func (d *Device) claim(frame []byte, span uint64) bool {
	if d.kern == nil {
		return false
	}
	if d.opt.SeeAll {
		d.kern.Claim(frame)
		return false
	}
	tr := d.host.Sim().Tracer()
	tr.SpanClaimArm(span)
	claimed := d.kern.Claim(frame)
	tr.SpanClaimSettle(d.host.Clock().Now(), d.host.Name(), claimed)
	return claimed
}

// xqCost charges the cross-queue delivery penalty: each accepting
// port remembers the queue that last delivered to it, and a handoff
// from a different queue's kernel thread costs XQDeliver.  Per-flow
// steering makes this rare — it takes distinct flows matched by one
// port straddling queues.  Free (and uncounted) on a single-queue
// device.
func (rx *rxCtx) xqCost(ports []*Port) time.Duration {
	d := rx.d
	if len(d.rx) == 1 {
		return 0
	}
	var cost time.Duration
	for _, port := range ports {
		if port.lastRxQ >= 0 && port.lastRxQ != rx.idx {
			cost += d.host.Costs().XQDeliver
			d.host.Counters.XQDeliveries++
			d.host.Sim().Counters.XQDeliveries++
		}
		port.lastRxQ = rx.idx
	}
	return cost
}

// input runs one driver entry's frames through the demux, then one
// "filter" and one "pf" kernel entry for all of them.  The fixed
// per-entry setup (PfInput, and FilterApply per port) is charged once;
// each further frame of a burst costs only the marginal PfPoll — §6's
// fixed overheads spread over the burst.  A lone frame is a burst of
// one, left unstamped: it pays its full FilterApply and a due reorder
// runs before its own match, so an isolated packet sees the same costs
// and latency with coalescing on or off.
func (rx *rxCtx) input(frames [][]byte, spans []uint64) {
	d := rx.d
	arrival := d.host.Clock().Now()
	tr := d.host.Sim().Tracer()
	costs := d.host.Costs()

	nDel := 0
	var filterCost, pfCost time.Duration
	if len(frames) > 1 {
		// burstSeq is one device-wide monotonic stamp across all
		// queues: per-port FilterApply amortization compares stamps for
		// equality, so bursts on different queues never share a setup
		// charge.
		d.burstSeq++
		d.curBurst = d.burstSeq
	}
	for k, frame := range frames {
		span := spans[k]
		if d.claim(frame, span) {
			continue
		}
		if d.opt.Gov.Enabled && !d.Admit(d.backlog(), &d.opt.Gov) {
			// Overload: shed at demux entry, before any filter cost.
			d.shedFrame(span)
			continue
		}
		if tr != nil {
			tr.PacketIn(arrival, d.host.Name())
		}
		tr.SpanMark(span, trace.StageDemux, arrival)
		d.pktSeen++
		d.maybeReorder()

		// Evaluate the filters now (real computation), then charge the
		// resulting virtual cost before the packet becomes visible.
		// Predicate evaluation is accounted separately from the fixed
		// per-packet work so experiments can reproduce §6.1's "41% of
		// this time is spent evaluating filter predicates".
		dl := rx.pushPending(frame, arrival)
		dl.span = span
		var fc time.Duration
		dl.ports, fc, dl.quarSkip = d.match(frame, dl.ports, arrival, &costs)
		filterCost += fc
		if nDel == 0 {
			pfCost += costs.PfInput
		} else {
			pfCost += costs.PfPoll
		}
		pfCost += rx.xqCost(dl.ports)
		for _, port := range dl.ports {
			if port.stamp {
				pfCost += costs.Timestamp
			}
		}
		nDel++
	}
	d.curBurst = 0
	if d.reorderPending {
		// A reorder that came due mid-burst was held so every frame of
		// the burst matched against one scan order; apply it now, at
		// the burst boundary.
		d.reorderPending = false
		d.Reorder()
	}
	if nDel == 0 {
		return
	}
	rx.entries = append(rx.entries, entry{n: nDel, lone: len(frames) == 1})
	d.host.RunKernelOn(rx.lane, rx.filterTag, filterCost, rx.markFilterFn)
	d.host.RunKernelOn(rx.lane, rx.pfTag, pfCost, rx.deliverFn)
}

// markFilter runs when a driver entry's "filter" CPU charge retires —
// always immediately before the same entry's "pf" completion (each
// lane's kernel grants complete in request order), so the entry's
// frames occupy the front of the queue's pending FIFO.
func (rx *rxCtx) markFilter() {
	d := rx.d
	if rx.entryHead >= len(rx.entries) {
		return
	}
	n := rx.entries[rx.entryHead].n
	tr := d.host.Sim().Tracer()
	now := d.host.Clock().Now()
	for i := 0; i < n && rx.pendHead+i < len(rx.pend); i++ {
		tr.SpanMark(rx.pend[rx.pendHead+i].span, trace.StageFilter, now)
	}
}

// delivery is one matched frame awaiting its "pf" CPU charge; the
// ports slice backing is recycled across frames.
type delivery struct {
	frame   []byte
	arrival time.Duration
	span    uint64
	ports   []*Port
	// quarSkip records that the frame's match pass skipped at least
	// one quarantined filter, so a no-match outcome is the governor's
	// doing (DropQuota) rather than the filter set's (DropNoMatch).
	quarSkip bool
}

// pushPending appends a pending delivery to the queue's FIFO, reusing
// a recycled slot's ports capacity when one is available.
func (rx *rxCtx) pushPending(frame []byte, arrival time.Duration) *delivery {
	n := len(rx.pend)
	if n < cap(rx.pend) {
		rx.pend = rx.pend[:n+1]
	} else {
		rx.pend = append(rx.pend, delivery{})
	}
	dl := &rx.pend[n]
	dl.frame, dl.arrival, dl.span = frame, arrival, 0
	dl.ports = dl.ports[:0]
	dl.quarSkip = false
	return dl
}

// popPending consumes the queue's oldest pending delivery.  The
// returned value shares its ports backing with the slot, which is only
// reused by a later pushPending — never while the caller is still
// delivering.
func (rx *rxCtx) popPending() delivery {
	dl := rx.pend[rx.pendHead]
	rx.pend[rx.pendHead].frame = nil
	rx.pendHead++
	if rx.pendHead == len(rx.pend) {
		rx.pend = rx.pend[:0]
		rx.pendHead = 0
	}
	return dl
}

func (rx *rxCtx) popEntry() entry {
	e := rx.entries[rx.entryHead]
	rx.entryHead++
	if rx.entryHead == len(rx.entries) {
		rx.entries = rx.entries[:0]
		rx.entryHead = 0
	}
	return e
}

// deliver completes one input(): it runs after the "pf" CPU charge and
// enqueues (or drops) the driver entry's pending frames.  A lone
// frame's ports are woken as each is queued; a burst's are queued
// without waking, then each touched port's readers are woken once —
// the once-per-burst wakeup the coalescing path exists for.
func (rx *rxCtx) deliver() {
	d := rx.d
	e := rx.popEntry()
	now := d.host.Clock().Now()
	tr := d.host.Sim().Tracer()
	wake := d.wakeScratch[:0]
	for k := 0; k < e.n; k++ {
		dl := rx.popPending()
		if len(dl.ports) == 0 {
			d.dropUnmatched(tr, now, dl)
			continue
		}
		for i, port := range dl.ports {
			s := dl.span
			if i > 0 {
				// Copy-all delivery to further ports forks child spans so
				// each enqueue terminates independently.
				s = tr.SpanFork(dl.span, now, d.host.Name())
			}
			switch {
			case e.lone:
				port.enqueue(dl.frame, dl.arrival, s)
			case port.enqueueQuiet(dl.frame, dl.arrival, s) && !port.wakePending:
				port.wakePending = true
				wake = append(wake, port)
			}
		}
	}
	for _, port := range wake {
		port.wakePending = false
		port.wakeReaders()
	}
	d.wakeScratch = wake[:0]
}

// match runs the §3.2 match (TableIndex.Match) for a frame that
// arrived at now and prices its tally with the host's costs: the
// virtual evaluation cost — FilterApply per setup owed, FilterInstr per
// unit of work — and the host and simulator filter counters.
func (d *Device) match(frame []byte, dst []*Port, now time.Duration, costs *vtime.Costs) ([]*Port, time.Duration, bool) {
	// Filled in place: a composite literal of this size is built in a
	// temporary and copied.
	var m Match
	m.Now, m.Burst, m.Tracer, m.Host = now, d.curBurst, d.host.Sim().Tracer(), d.host.Name()
	ports := d.Match(frame, dst, &m)
	return ports, d.price(&m.Tally, len(ports)-len(dst), costs), m.QuarSkip
}

// price turns a match tally with matched accepting ports into virtual
// CPU and counters.
func (d *Device) price(t *Tally, matched int, costs *vtime.Costs) time.Duration {
	for _, c := range [2]*vtime.Counters{&d.host.Counters, &d.host.Sim().Counters} {
		c.FilterApplied += uint64(t.Applied)
		c.FilterInstrs += uint64(t.Units)
		c.PacketsMatched += uint64(matched)
	}
	return time.Duration(t.Setups)*costs.FilterApply + time.Duration(t.Units)*costs.FilterInstr
}

// dropUnmatched accounts a pending frame no port accepted.
func (d *Device) dropUnmatched(tr *trace.Tracer, now time.Duration, dl delivery) {
	d.KernelDrops++
	d.host.Counters.PacketsDropped++
	d.host.Sim().Counters.PacketsDropped++
	DropUnmatched(tr, now, d.host.Name(), dl.span, dl.quarSkip)
}

// maybeReorder runs a due §3.2 busy-first reorder, deferring it to the
// burst boundary when a coalesced burst is mid-flight so all frames of
// one burst observe a single scan order.
func (d *Device) maybeReorder() {
	if !d.opt.Reorder || d.pktSeen%uint64(d.opt.ReorderEvery) != 0 {
		return
	}
	if d.curBurst != 0 {
		d.reorderPending = true
		return
	}
	d.Reorder()
}

// Errors returned by port operations.
var (
	ErrTimeout    = errors.New("pfdev: read timed out")
	ErrClosed     = errors.New("pfdev: port closed")
	ErrNoFilter   = errors.New("pfdev: no filter bound")
	ErrWouldBlock = errors.New("pfdev: no packet queued")
	ErrPriority   = errors.New("pfdev: priority reserved for privileged ports")
)
