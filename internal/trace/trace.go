// Package trace is the virtual-time observability layer of the
// simulated kernel: a typed event stream, a metrics registry and a
// kernel-time profiler, with text, JSON and Chrome-trace exporters.
//
// The paper's entire evaluation (§6) is observability — counting
// context switches, domain crossings, copies and filter instructions,
// and profiling where kernel time goes ("41% of this time is spent
// evaluating filter predicates", §6.1).  This package generalizes the
// one-off accounting in internal/bench so that *any* workload can be
// asked "where did the virtual time go?".
//
// Cost model:
//
//   - no Tracer attached to a simulation: zero cost — every
//     instrumentation site is a single nil check;
//   - Tracer attached, no Sink: metrics and the kernel profile
//     accumulate (counter bumps, no allocation per event);
//   - Sink attached (SetSink): every typed event is delivered too,
//     which is what the Chrome-trace export consumes.
//
// All quantities are virtual time from the simulation clock, so two
// identical runs produce bit-identical event streams and snapshots.
package trace

import "time"

// Kind identifies the type of one trace event.
type Kind uint8

const (
	// KindCtxSwitch: the CPU of Host passed to process Proc.
	// Value is the switch cost in nanoseconds of virtual time.
	KindCtxSwitch Kind = iota
	// KindSyscallEnter / KindSyscallExit bracket one kernel
	// entry+exit by Proc on Host; Tag is the kernel subsystem.
	KindSyscallEnter
	KindSyscallExit
	// KindCopy: Value bytes crossed the kernel/user boundary.
	KindCopy
	// KindWakeup: a blocked process on Host was made runnable.
	KindWakeup
	// KindKernelSlice: the Host CPU ran kernel work accounted under
	// Tag for Value nanoseconds (Proc set when the slice is the
	// kernel half of a system call).
	KindKernelSlice
	// KindUserSlice: Proc ran in user mode for Value nanoseconds.
	KindUserSlice
	// KindFilterEval: the packet filter applied the filter of Port
	// to a packet; Value is instruction words interpreted, Aux is 1
	// on accept.  Port is -1 for a merged decision-table walk.
	KindFilterEval
	// KindEnqueue: a packet was queued on Port; Value is the queue
	// depth after the operation.
	KindEnqueue
	// KindDequeue: a read drained packets from Port; Value is the
	// queue depth after, Aux the number of packets taken.
	KindDequeue
	// KindDrop: a packet was lost; Tag is the reason ("nomatch",
	// "queue", "nic", "wire").
	KindDrop
	// KindDeliver: a packet reached a user process via Port; Value
	// is the arrival-to-delivery latency in nanoseconds.
	KindDeliver
	// KindWireTx: Host began transmitting a Value-byte frame; Aux
	// is the wire occupancy time in nanoseconds.
	KindWireTx
	// KindWireRx: Host's interface accepted a Value-byte frame.
	KindWireRx
	// KindProto: a kernel-resident protocol event on Host; Tag is
	// "ip_in", "ip_out", "arp_in", ...
	KindProto
	// KindFault: the fault-injection engine perturbed the run; Tag
	// is the fault kind ("drop", "corrupt", "dup", "delay", "pause",
	// "crash", "restart", "squeeze"), Value the injector's frame
	// index (or 0 for host-lifecycle faults).
	KindFault
	// KindMapped: Value bytes were delivered to Proc in place
	// through a shared-memory mapping (no kernel/user copy).
	KindMapped
	// KindRingReap: one reap syscall harvested Aux packets totalling
	// Value bytes from the mapped ring of Port.
	KindRingReap
	// KindBurst: the interface handed a coalesced burst of Value
	// frames to the kernel under one driver entry on Host; Aux is the
	// number of frames still buffered behind it.
	KindBurst

	numKinds // sentinel
)

var kindNames = [numKinds]string{
	"ctxswitch", "syscall_enter", "syscall_exit", "copy", "wakeup",
	"kernel_slice", "user_slice", "filter_eval", "enqueue", "dequeue",
	"drop", "deliver", "wire_tx", "wire_rx", "proto", "fault",
	"mapped", "ring_reap", "burst",
}

// String returns the event kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed trace event.  Which fields are meaningful depends
// on Kind (see the Kind constants).  Events are comparable, so two
// captured streams can be checked for bit-identity.
type Event struct {
	When  time.Duration `json:"ts"`
	Kind  Kind          `json:"kind"`
	Host  string        `json:"host,omitempty"`
	Proc  string        `json:"proc,omitempty"`
	Tag   string        `json:"tag,omitempty"`
	Port  int           `json:"port,omitempty"`
	Value int64         `json:"value,omitempty"`
	Aux   int64         `json:"aux,omitempty"`
}

// Sink receives every event of a traced run.
type Sink interface {
	Emit(Event)
}

// Recorder is a Sink that retains the whole event stream in order —
// the input to WriteChromeTrace and to determinism tests.
type Recorder struct {
	Events []Event
}

// Emit appends the event.
func (r *Recorder) Emit(e Event) { r.Events = append(r.Events, e) }

// Tracer is the per-simulation observability hub: it owns the metrics
// registry and kernel profile, and forwards typed events to an
// optional Sink.  Attach one to a simulation with sim.SetTracer.
type Tracer struct {
	sink  Sink
	reg   registry
	prof  profiler
	spans *Spans
	hot   hostHandles
}

// Fixed-name metrics the per-packet entry points update, resolved
// through hostHandles instead of a registry lookup per call.
const (
	hotPackets = iota
	hotEvals
	hotInstrs
	hotMatched
	hotEnqueued
	hotDequeued
	hotDelivered
	numHotCounters
)

var hotCounterNames = [numHotCounters]string{
	hotPackets:   "pf.packets",
	hotEvals:     "pf.evals",
	hotInstrs:    "pf.instrs",
	hotMatched:   "pf.matched",
	hotEnqueued:  "pf.enqueued",
	hotDequeued:  "pf.dequeued",
	hotDelivered: "pf.delivered",
}

// hostHandles.hists holds the stage histograms (stageHistNames order)
// and then the delivery-latency histogram.
const (
	hotDeliveryLatency  = len(stageHistNames)
	numHotHists         = hotDeliveryLatency + 1
	histDeliveryLatency = "pf.delivery_latency"
)

// hostHandles caches, for the host the tracer last saw, the registry
// entries behind the per-packet entry points.  Each handle is filled
// on first use, exactly where the registry lookup it replaces would
// have created the entry, so registry contents are unchanged; the
// pointers stay valid because ResetHost zeroes entries in place.  A
// different host empties the cache, so alternating hosts costs one
// lookup per handle, as without it.
type hostHandles struct {
	host     string
	counters [numHotCounters]*Counter
	hists    [numHotHists]*Histogram
}

// hotCounter returns host's counter hotCounterNames[i].
func (t *Tracer) hotCounter(host string, i int) *Counter {
	h := &t.hot
	if h.host != host {
		*h = hostHandles{host: host}
	}
	c := h.counters[i]
	if c == nil {
		c = t.reg.counter(host, hotCounterNames[i])
		h.counters[i] = c
	}
	return c
}

// hotHist returns host's histogram i: a stage histogram, or
// hotDeliveryLatency.
func (t *Tracer) hotHist(host string, i int) *Histogram {
	h := &t.hot
	if h.host != host {
		*h = hostHandles{host: host}
	}
	hist := h.hists[i]
	if hist == nil {
		name := histDeliveryLatency
		if i < hotDeliveryLatency {
			name = stageHistNames[i]
		}
		hist = t.reg.histogram(host, name)
		h.hists[i] = hist
	}
	return hist
}

// New creates a Tracer with metrics and profiling enabled and no
// event sink.
func New() *Tracer {
	t := &Tracer{}
	t.reg.init()
	t.prof.init()
	return t
}

// SetSink attaches (or, with nil, detaches) the event sink.
func (t *Tracer) SetSink(s Sink) { t.sink = s }

func (t *Tracer) emit(e Event) {
	if t.sink != nil {
		t.sink.Emit(e)
	}
}

// ResetHost zeroes every metric, histogram, gauge and profile entry
// scoped to the named host, in place — pointers obtained earlier from
// Counter/Gauge/Histogram remain valid.  Benchmarks call it (via
// Host.ResetAccounting) after warm-up.
func (t *Tracer) ResetHost(host string) {
	t.reg.resetHost(host)
	t.prof.resetHost(host)
}

// --- Instrumentation entry points ----------------------------------------
//
// Each helper updates the metrics registry and, when a sink is
// attached, emits one typed event.  They are called by the simulator
// and device packages, always behind a nil-Tracer check.

// CtxSwitch records the Host CPU passing to process proc at now, with
// the given virtual switch cost.
func (t *Tracer) CtxSwitch(now time.Duration, host, proc string, cost time.Duration) {
	t.reg.counter(host, "sched.ctxswitch").Add(1)
	t.emit(Event{When: now, Kind: KindCtxSwitch, Host: host, Proc: proc, Value: int64(cost)})
}

// SyscallEnter records a kernel entry by proc, under subsystem tag.
func (t *Tracer) SyscallEnter(now time.Duration, host, proc, tag string) {
	t.reg.counter(host, "sys.calls").Add(1)
	t.emit(Event{When: now, Kind: KindSyscallEnter, Host: host, Proc: proc, Tag: tag})
}

// SyscallExit records the matching kernel exit.
func (t *Tracer) SyscallExit(now time.Duration, host, proc, tag string) {
	t.emit(Event{When: now, Kind: KindSyscallExit, Host: host, Proc: proc, Tag: tag})
}

// Copy records n bytes moving across the kernel/user boundary.
func (t *Tracer) Copy(now time.Duration, host, proc, tag string, n int) {
	t.reg.counter(host, "sys.copies").Add(1)
	t.reg.counter(host, "sys.copy_bytes").Add(uint64(n))
	t.emit(Event{When: now, Kind: KindCopy, Host: host, Proc: proc, Tag: tag, Value: int64(n)})
}

// Wakeup records a blocked process being made runnable on host.
func (t *Tracer) Wakeup(now time.Duration, host string) {
	t.reg.counter(host, "sched.wakeups").Add(1)
	t.emit(Event{When: now, Kind: KindWakeup, Host: host})
}

// KernelSlice records the host CPU starting d of kernel work under
// tag (event stream only; time attribution happens via KernelTime when
// the slice completes, mirroring the host's own accounting).
func (t *Tracer) KernelSlice(now time.Duration, host, tag, proc string, d time.Duration) {
	t.emit(Event{When: now, Kind: KindKernelSlice, Host: host, Proc: proc, Tag: tag, Value: int64(d)})
}

// UserSlice records proc starting d of user-mode CPU.
func (t *Tracer) UserSlice(now time.Duration, host, proc string, d time.Duration) {
	t.emit(Event{When: now, Kind: KindUserSlice, Host: host, Proc: proc, Value: int64(d)})
}

// KernelTime attributes d of completed kernel CPU on host to the
// category tag — the profiler's input, fed from the same place that
// updates Host.KernelTime so the two always agree.
func (t *Tracer) KernelTime(host, tag string, d time.Duration) {
	t.prof.addKernel(host, tag, d)
}

// UserTime attributes d of completed user-mode CPU on host.
func (t *Tracer) UserTime(host string, d time.Duration) {
	t.prof.addUser(host, d)
}

// PacketIn records one received packet entering the packet-filter
// input path on host (after any kernel-resident protocol claim).
func (t *Tracer) PacketIn(now time.Duration, host string) {
	t.hotCounter(host, hotPackets).Add(1)
}

// FilterEval records one filter application: instrs instruction words
// interpreted on behalf of port, accepting or rejecting the packet.
// port is -1 for a merged decision-table walk.
func (t *Tracer) FilterEval(now time.Duration, host string, port int, instrs int, accept bool) {
	t.hotCounter(host, hotEvals).Add(1)
	t.hotCounter(host, hotInstrs).Add(uint64(instrs))
	var aux int64
	if accept {
		t.hotCounter(host, hotMatched).Add(1)
		aux = 1
	}
	t.emit(Event{When: now, Kind: KindFilterEval, Host: host, Port: port,
		Value: int64(instrs), Aux: aux})
}

// Enqueue records a packet queued on port, with the depth after.
func (t *Tracer) Enqueue(now time.Duration, host string, port, depth int) {
	t.hotCounter(host, hotEnqueued).Add(1)
	t.emit(Event{When: now, Kind: KindEnqueue, Host: host, Port: port, Value: int64(depth)})
}

// Dequeue records a read draining n packets from port, with the depth
// after.
func (t *Tracer) Dequeue(now time.Duration, host string, port, depth, n int) {
	t.hotCounter(host, hotDequeued).Add(uint64(n))
	t.emit(Event{When: now, Kind: KindDequeue, Host: host, Port: port,
		Value: int64(depth), Aux: int64(n)})
}

// Drop records a lost packet; reason is "nomatch", "queue", "nic" or
// "wire".
func (t *Tracer) Drop(now time.Duration, host, reason string) {
	name, ok := legacyDropNames[reason]
	if !ok {
		name = "drop." + reason
	}
	t.reg.counter(host, name).Add(1)
	t.emit(Event{When: now, Kind: KindDrop, Host: host, Tag: reason})
}

// legacyDropNames interns the metric names of the known drop reasons
// so the hot receive path never concatenates strings.
var legacyDropNames = map[string]string{
	"wire":    "drop.wire",
	"nic":     "drop.nic",
	"queue":   "drop.queue",
	"nomatch": "drop.nomatch",
}

// Deliver records a packet reaching a user process via port,
// observing the arrival-to-delivery latency histogram.
func (t *Tracer) Deliver(now time.Duration, host string, port int, latency time.Duration) {
	t.hotCounter(host, hotDelivered).Add(1)
	t.hotHist(host, hotDeliveryLatency).Observe(latency)
	t.emit(Event{When: now, Kind: KindDeliver, Host: host, Port: port, Value: int64(latency)})
}

// WireTx records host beginning to transmit an n-byte frame occupying
// the wire for txTime.
func (t *Tracer) WireTx(now time.Duration, host string, n int, txTime time.Duration) {
	t.reg.counter(host, "wire.tx").Add(1)
	t.reg.counter(host, "wire.tx_bytes").Add(uint64(n))
	t.emit(Event{When: now, Kind: KindWireTx, Host: host, Value: int64(n), Aux: int64(txTime)})
}

// WireRx records host's interface accepting an n-byte frame.
func (t *Tracer) WireRx(now time.Duration, host string, n int) {
	t.reg.counter(host, "wire.rx").Add(1)
	t.reg.counter(host, "wire.rx_bytes").Add(uint64(n))
	t.emit(Event{When: now, Kind: KindWireRx, Host: host, Value: int64(n)})
}

// Proto records a kernel-resident protocol event ("ip_in", "ip_out",
// "arp_in", ...).
func (t *Tracer) Proto(now time.Duration, host, what string) {
	t.reg.counter(host, "inet."+what).Add(1)
	t.emit(Event{When: now, Kind: KindProto, Host: host, Tag: what})
}

// Mapped records n bytes delivered to proc in place through a
// shared-memory mapping — the copies that did NOT happen.
func (t *Tracer) Mapped(now time.Duration, host, proc, tag string, n int) {
	t.reg.counter(host, "sys.mapped_bytes").Add(uint64(n))
	t.emit(Event{When: now, Kind: KindMapped, Host: host, Proc: proc, Tag: tag, Value: int64(n)})
}

// PortCopied attributes n kernel/user-copied bytes to the packet
// filter's delivery path (the per-port bytes_copied counters sum to
// this), so ring-vs-copy ablations can read the copy tax directly.
func (t *Tracer) PortCopied(host string, n int) {
	t.reg.counter(host, "pf.copied_bytes").Add(uint64(n))
}

// RingReap records one reap syscall harvesting n packets totalling
// bytes from the mapped ring of port.
func (t *Tracer) RingReap(now time.Duration, host string, port, n, bytes int) {
	t.reg.counter(host, "pf.ring_reaps").Add(1)
	t.reg.counter(host, "pf.mapped_bytes").Add(uint64(bytes))
	t.emit(Event{When: now, Kind: KindRingReap, Host: host, Port: port,
		Value: int64(bytes), Aux: int64(n)})
}

// Burst records the interface on host handing a coalesced burst of
// frames to the kernel in one driver entry; backlog is the number of
// frames still buffered behind it.
func (t *Tracer) Burst(now time.Duration, host string, frames, backlog int) {
	t.reg.counter(host, "nic.bursts").Add(1)
	t.reg.counter(host, "nic.coalesced").Add(uint64(frames))
	t.emit(Event{When: now, Kind: KindBurst, Host: host,
		Value: int64(frames), Aux: int64(backlog)})
}

// Fault records one injected fault of the given kind ("drop",
// "corrupt", "dup", "delay", "pause", "crash", "restart", "squeeze")
// against host; index is the wire-frame index for frame faults, 0 for
// host-lifecycle faults.  Every injection increments the host-scoped
// counter "fault.<kind>", which is what cmd/pfchaos reconciles against
// the injector's own ledger.
func (t *Tracer) Fault(now time.Duration, host, kind string, index uint64) {
	t.reg.counter(host, "fault."+kind).Add(1)
	t.emit(Event{When: now, Kind: KindFault, Host: host, Tag: kind, Value: int64(index)})
}

// --- Direct registry access ----------------------------------------------

// Counter returns (creating if needed) the named host-scoped counter.
func (t *Tracer) Counter(host, name string) *Counter { return t.reg.counter(host, name) }

// Gauge returns (creating if needed) the named host-scoped gauge.
func (t *Tracer) Gauge(host, name string) *Gauge { return t.reg.gauge(host, name) }

// Histogram returns (creating if needed) the named host-scoped
// virtual-time histogram.
func (t *Tracer) Histogram(host, name string) *Histogram { return t.reg.histogram(host, name) }
