package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Per-packet provenance: every sampled packet is stamped with a span
// at its transmit origin and carried through each stage of the receive
// path — wire transit, NIC queue, coalesced burst, kernel demux,
// filter evaluation, port enqueue, user read — so a run can answer
// "where did *this* packet spend its time, and where exactly do
// packets die under load?".  A span terminates exactly once: delivered
// to a user read, consumed by a kernel-resident protocol, or dead with
// a typed DropReason.  Span records live in a fixed-size ring (the
// flight recorder) with a flat encoding, so steady-state tracking
// allocates nothing and the recorder can be dumped on any anomaly.

// Stage is one boundary a packet crosses on its way from transmit
// origin to user delivery.
type Stage uint8

const (
	// StageOrigin: the frame was handed to the interface for
	// transmission (workload generator or protocol send).
	StageOrigin Stage = iota
	// StageWire: the frame started occupying the shared medium.
	StageWire
	// StageNIC: a receiving interface accepted the frame into its
	// input queue.
	StageNIC
	// StageBurst: the frame entered a coalescing burst buffer.
	StageBurst
	// StageDemux: the frame entered the packet-filter input path
	// (after any kernel-protocol claim).
	StageDemux
	// StageFilter: filter evaluation for the frame retired on the
	// host CPU.
	StageFilter
	// StageQueue: the frame was enqueued on an accepting port (or
	// deposited in its mapped ring).
	StageQueue
	// StageRead: a user read/reap returned the frame.
	StageRead

	numStages
)

var stageNames = [numStages]string{
	"origin", "wire", "nic", "burst", "demux", "filter", "queue", "read",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// DropReason classifies every place a packet can die.  The taxonomy is
// rolled into per-host "span.drop.<reason>" counters and reconciled
// against the fault engine's ledger: an injected wire drop is the only
// way a span dies with DropWireFault, so the two counts match exactly.
type DropReason uint8

const (
	// DropWireFault: the fault injector (or a legacy DropEvery/DropFn
	// hook) discarded the frame after it occupied the wire.
	DropWireFault DropReason = iota
	// DropNoReceiver: no attached interface accepted the frame's
	// destination address.
	DropNoReceiver
	// DropNICDown: the host was down — at transmit (a dead machine
	// sends nothing) or at receive (frames for a crashed host fall on
	// the floor).
	DropNICDown
	// DropNICQueue: the interface input queue overflowed.
	DropNICQueue
	// DropNoMatch: no bound filter accepted the packet.
	DropNoMatch
	// DropPortQueue: the accepting port's input queue was full
	// (including a fault-engine queue squeeze).
	DropPortQueue
	// DropRingSlots: the accepting port's mapped ring had no free
	// receive slot (all queued or lent to a reaping process).
	DropRingSlots
	// DropCrash: the packet was in flight inside the kernel — NIC
	// pending work, a coalescing buffer, the pending-delivery queue or
	// a port queue — when the host crashed.
	DropCrash
	// DropPortClose: the packet was still queued when its port closed.
	DropPortClose
	// DropUnclaimed: a user-level consumer (demux dispatcher, a
	// handlerless interface) had no claimant for the packet.
	DropUnclaimed
	// DropChecksum: a transport checksum rejected the packet after
	// delivery (the fate of most corrupted frames).
	DropChecksum
	// DropInet: the kernel protocol stack discarded the packet
	// (parse failure or wrong destination address).
	DropInet
	// DropTTL: the packet arrived with an expired IP TTL.
	DropTTL
	// DropHops: a gateway refused to forward the packet (hop count
	// exceeded).
	DropHops
	// DropNoRoute: a gateway had no route for the packet.
	DropNoRoute
	// DropQuota: the packet matched no port while at least one
	// over-budget port's filter was skipped under quarantine — the
	// resource governor, not the filter set, decided its fate.
	DropQuota
	// DropAdmission: the overload admission controller shed the frame
	// at demux entry, before any filter cost was paid.
	DropAdmission

	// NumDropReasons sizes taxonomy arrays.
	NumDropReasons
)

var dropNames = [NumDropReasons]string{
	DropWireFault:  "wire_fault",
	DropNoReceiver: "no_receiver",
	DropNICDown:    "nic_down",
	DropNICQueue:   "nic_queue",
	DropNoMatch:    "nomatch",
	DropPortQueue:  "port_queue",
	DropRingSlots:  "ring_slots",
	DropCrash:      "crash",
	DropPortClose:  "port_close",
	DropUnclaimed:  "unclaimed",
	DropChecksum:   "checksum",
	DropInet:       "inet",
	DropTTL:        "ttl",
	DropHops:       "hops",
	DropNoRoute:    "no_route",
	DropQuota:      "quota",
	DropAdmission:  "admission",
}

// dropCounterNames pre-interns the per-host taxonomy counter names so
// recording a drop never concatenates strings on the hot path.
var dropCounterNames [NumDropReasons]string

func init() {
	for i := range dropCounterNames {
		dropCounterNames[i] = "span.drop." + dropNames[i]
	}
}

// String returns the reason's snake_case name.
func (r DropReason) String() string {
	if int(r) < len(dropNames) {
		return dropNames[r]
	}
	return "unknown"
}

// Span flags.
const (
	// FlagCorrupt: the fault injector flipped a bit in the frame.
	FlagCorrupt uint8 = 1 << iota
	// FlagDup: this span is the injected duplicate delivery of its
	// parent.
	FlagDup
	// FlagDelayed: the fault injector postponed the frame's delivery.
	FlagDelayed
	// FlagChild: the span was forked from a parent (duplicate,
	// extra broadcast recipient, gateway re-transmit hop, or a
	// born-dead user-level verdict).
	FlagChild
)

// Span terminal states (SpanRecord.Term).
const (
	// TermLive: the span has not terminated.
	TermLive uint8 = 0
	// TermUser: a user read/reap returned the packet.
	TermUser uint8 = 1
	// TermKernel: a kernel-resident protocol consumed the packet.
	TermKernel uint8 = 2
	// termDropBase + DropReason: the packet died.
	termDropBase uint8 = 3
)

// StageMark is one stage boundary crossing at a virtual time.
type StageMark struct {
	Stage Stage
	When  time.Duration
}

// maxMarks bounds the stage marks of one record (a packet crosses at
// most eight distinct stages).
const maxMarks = 10

// SpanRecord is the flat, fixed-size provenance record of one packet.
// Records are value types in a preallocated ring: tracking a packet in
// steady state allocates nothing.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // 0 for a root span
	Origin string // host that transmitted the frame
	Final  string // host where the span terminated
	Class  string // workload class or protocol tag ("pup", "ip", ...)
	Port   int32  // delivering port id, -1 if none
	Term   uint8
	Flags  uint8
	NMarks uint8
	End    time.Duration // termination time (valid when Term != TermLive)
	Marks  [maxMarks]StageMark
}

// Dropped returns the drop reason when the span died.
func (r *SpanRecord) Dropped() (DropReason, bool) {
	if r.Term < termDropBase {
		return 0, false
	}
	return DropReason(r.Term - termDropBase), true
}

// MarkAt returns the virtual time the span crossed stage.
func (r *SpanRecord) MarkAt(s Stage) (time.Duration, bool) {
	for i := 0; i < int(r.NMarks); i++ {
		if r.Marks[i].Stage == s {
			return r.Marks[i].When, true
		}
	}
	return 0, false
}

// TermString renders the terminal state ("live", "delivered",
// "kernel", or "drop:<reason>").
func (r *SpanRecord) TermString() string {
	switch {
	case r.Term == TermLive:
		return "live"
	case r.Term == TermUser:
		return "delivered"
	case r.Term == TermKernel:
		return "kernel"
	default:
		return "drop:" + DropReason(r.Term-termDropBase).String()
	}
}

// SpanConfig configures span tracking.
type SpanConfig struct {
	// Sample keeps 1-in-N root spans, deterministic by origin order
	// (child spans inherit their parent's fate).  <= 1 tracks every
	// packet.
	Sample int
	// Ring is the flight-recorder capacity in records (default 4096).
	// A run that must prove conservation sizes it above its packet
	// count so no live span is evicted.
	Ring int
	// P99, when > 0, arms the SLO watchdog on the span.total p99.
	P99 time.Duration
	// MaxDropRate, when > 0, arms the watchdog on drops/created.
	MaxDropRate float64
	// MinSample is the number of terminations before the watchdog may
	// trip (default 256).
	MinSample uint64
	// OnAnomaly runs once, at the first watchdog breach.
	OnAnomaly func(reason string)
}

// Spans is the per-tracer span tracker and flight recorder.
type Spans struct {
	cfg  SpanConfig
	recs []SpanRecord

	nextID uint64
	seen   uint64 // root-span candidates, for sampling
	lastID uint64 // result of the most recent SpanOrigin (0 if unsampled)

	// Ambient hand-off state.  The simulation event loop runs one
	// goroutine at a time, so a single cell per hand-off suffices.
	txParent   uint64 // SpanNextParent: parent for the next SpanOrigin
	claimSpan  uint64 // SpanClaimArm/Take/Settle: span offered to the kernel stack
	claimArmed bool
	claimTaken bool

	// Aggregate accounting.  Conservation: Created == DeliveredUser +
	// DeliveredKernel + sum(Drops) + Live().
	Created         uint64
	DeliveredUser   uint64
	DeliveredKernel uint64
	Drops           [NumDropReasons]uint64

	// FlaggedCorrupt/Dup/Delayed reconcile against the fault ledger's
	// Corrupts/Dups/Delays counts (at sampling 1).
	FlaggedCorrupt uint64
	FlaggedDup     uint64
	FlaggedDelayed uint64

	// Wrapped counts still-live records evicted by ring wrap-around;
	// DoubleTerm counts terminations of already-terminated spans.
	// Both are zero in a healthy, adequately-sized run.
	Wrapped    uint64
	DoubleTerm uint64

	total Histogram // origin-to-read latency of user-delivered spans

	sinceCheck int
	tripped    bool
	anomaly    string
}

// Histogram names fed at span termination; per-host in the registry.
var stageHistNames = [...]string{
	"span.stage.wire",   // origin -> NIC accept
	"span.stage.nic",    // NIC accept -> demux entry
	"span.stage.filter", // demux entry -> filter retire
	"span.stage.pf",     // filter retire -> port enqueue
	"span.stage.queue",  // port enqueue -> user read
}

const histSpanTotal = "span.total"

// stageSegs pairs each stage histogram with its boundary marks; the
// last segment closes at the record's End.
var stageSegs = [...]struct{ from, to Stage }{
	{StageOrigin, StageNIC},
	{StageNIC, StageDemux},
	{StageDemux, StageFilter},
	{StageFilter, StageQueue},
	{StageQueue, StageRead},
}

// EnableSpans switches on span tracking and returns the tracker.
func (t *Tracer) EnableSpans(cfg SpanConfig) *Spans {
	if cfg.Sample < 1 {
		cfg.Sample = 1
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 4096
	}
	if cfg.MinSample == 0 {
		cfg.MinSample = 256
	}
	sp := &Spans{cfg: cfg, recs: make([]SpanRecord, cfg.Ring)}
	t.spans = sp
	return sp
}

// Spans returns the span tracker, or nil when spans are not enabled.
func (t *Tracer) Spans() *Spans {
	if t == nil {
		return nil
	}
	return t.spans
}

// rec returns the live record for id, or nil if the ring has since
// evicted it (aggregate accounting still proceeds without a record).
func (sp *Spans) rec(id uint64) *SpanRecord {
	if id == 0 {
		return nil
	}
	r := &sp.recs[(id-1)%uint64(len(sp.recs))]
	if r.ID != id {
		return nil
	}
	return r
}

// create allocates the next span id and claims its ring slot.
func (sp *Spans) create(parent uint64, host string, flags uint8, now time.Duration) uint64 {
	sp.nextID++
	id := sp.nextID
	r := &sp.recs[(id-1)%uint64(len(sp.recs))]
	if r.ID != 0 && r.Term == TermLive {
		sp.Wrapped++
	}
	*r = SpanRecord{ID: id, Parent: parent, Origin: host, Port: -1, Flags: flags}
	r.Marks[0] = StageMark{StageOrigin, now}
	r.NMarks = 1
	sp.Created++
	return id
}

// Terminations returns how many spans have terminated.
func (sp *Spans) Terminations() uint64 {
	return sp.DeliveredUser + sp.DeliveredKernel + sp.TotalDrops()
}

// TotalDrops sums the drop taxonomy.
func (sp *Spans) TotalDrops() uint64 {
	var n uint64
	for _, d := range sp.Drops {
		n += d
	}
	return n
}

// Live returns how many created spans have not terminated.
func (sp *Spans) Live() uint64 { return sp.Created - sp.Terminations() }

// Tripped reports whether the SLO watchdog has fired, and why.
func (sp *Spans) Tripped() (bool, string) { return sp.tripped, sp.anomaly }

// Total exposes the origin-to-read latency histogram of delivered
// spans.
func (sp *Spans) Total() *Histogram { return &sp.total }

// --- Tracer span API -------------------------------------------------------
//
// Every method is safe on a nil Tracer and with span id 0 (an
// unsampled packet), so instrumentation sites need no guards; none of
// them allocates in steady state.

// SpanOrigin creates a root span for a frame entering transmission on
// host, applying sampling; it consumes any pending SpanNextParent
// linkage (a gateway re-transmit joins its parent's causal tree and
// bypasses sampling).  Returns 0 when the packet is not tracked.
func (t *Tracer) SpanOrigin(now time.Duration, host string) uint64 {
	if t == nil || t.spans == nil {
		return 0
	}
	sp := t.spans
	parent := sp.txParent
	sp.txParent = 0
	var flags uint8
	if parent == 0 {
		sp.seen++
		if sp.cfg.Sample > 1 && (sp.seen-1)%uint64(sp.cfg.Sample) != 0 {
			sp.lastID = 0
			return 0
		}
	} else {
		flags = FlagChild
	}
	id := sp.create(parent, host, flags, now)
	sp.lastID = id
	return id
}

// LastSpan returns the span created by the most recent SpanOrigin
// (0 if it was sampled out) — how the workload generator tags the
// class of the frame it just transmitted.
func (t *Tracer) LastSpan() uint64 {
	if t == nil || t.spans == nil {
		return 0
	}
	return t.spans.lastID
}

// SpanNextParent links the next SpanOrigin as a child of parent — a
// gateway calls it immediately before re-transmitting a forwarded
// packet.
func (t *Tracer) SpanNextParent(parent uint64) {
	if t == nil || t.spans == nil {
		return
	}
	t.spans.txParent = parent
}

// SpanFork creates a child span of parent on host: an injected
// duplicate, or an extra broadcast/promiscuous recipient.  Returns 0
// when the parent is untracked.
func (t *Tracer) SpanFork(parent uint64, now time.Duration, host string) uint64 {
	if t == nil || t.spans == nil || parent == 0 {
		return 0
	}
	return t.spans.create(parent, host, FlagChild, now)
}

// SpanMark stamps a stage boundary crossing.
func (t *Tracer) SpanMark(id uint64, s Stage, now time.Duration) {
	if t == nil || t.spans == nil {
		return
	}
	r := t.spans.rec(id)
	if r == nil || int(r.NMarks) >= maxMarks {
		return
	}
	r.Marks[r.NMarks] = StageMark{s, now}
	r.NMarks++
}

// SpanFlag sets a fault flag on the span and counts it for ledger
// reconciliation.
func (t *Tracer) SpanFlag(id uint64, flag uint8) {
	if t == nil || t.spans == nil || id == 0 {
		return
	}
	sp := t.spans
	switch flag {
	case FlagCorrupt:
		sp.FlaggedCorrupt++
	case FlagDup:
		sp.FlaggedDup++
	case FlagDelayed:
		sp.FlaggedDelayed++
	}
	if r := sp.rec(id); r != nil {
		r.Flags |= flag
	}
}

// SpanPort records the delivering port.
func (t *Tracer) SpanPort(id uint64, port int) {
	if t == nil || t.spans == nil {
		return
	}
	if r := t.spans.rec(id); r != nil {
		r.Port = int32(port)
	}
}

// SpanClass tags the span with its workload class or protocol name.
func (t *Tracer) SpanClass(id uint64, class string) {
	if t == nil || t.spans == nil {
		return
	}
	if r := t.spans.rec(id); r != nil {
		r.Class = class
	}
}

// SpanDrop terminates the span with a typed drop reason on host, and
// bumps the per-host taxonomy counter.
func (t *Tracer) SpanDrop(id uint64, now time.Duration, host string, reason DropReason) {
	if t == nil || t.spans == nil || id == 0 {
		return
	}
	sp := t.spans
	if r := sp.rec(id); r != nil {
		if r.Term != TermLive {
			sp.DoubleTerm++
			return
		}
		r.Term = termDropBase + uint8(reason)
		r.Final = host
		r.End = now
	}
	sp.Drops[reason]++
	t.reg.counter(host, dropCounterNames[reason]).Add(1)
	sp.onTerm()
}

// SpanDelivered terminates the span at a user read/reap on host via
// port, observing the per-stage latency breakdown.
func (t *Tracer) SpanDelivered(id uint64, now time.Duration, host string, port int) {
	if t == nil || t.spans == nil || id == 0 {
		return
	}
	sp := t.spans
	r := sp.rec(id)
	if r != nil && r.Term != TermLive {
		sp.DoubleTerm++
		return
	}
	sp.DeliveredUser++
	if r != nil {
		r.Term = TermUser
		r.Final = host
		r.End = now
		if r.Port < 0 && port >= 0 {
			r.Port = int32(port)
		}
		if int(r.NMarks) < maxMarks {
			r.Marks[r.NMarks] = StageMark{StageRead, now}
			r.NMarks++
		}
		t.observeStages(r, host)
	}
	sp.onTerm()
}

// SpanKernelDelivered terminates the span as consumed by a
// kernel-resident protocol (tag "ip", "arp", "kproto", ...).
func (t *Tracer) SpanKernelDelivered(id uint64, now time.Duration, host, tag string) {
	if t == nil || t.spans == nil || id == 0 {
		return
	}
	sp := t.spans
	if r := sp.rec(id); r != nil {
		if r.Term != TermLive {
			sp.DoubleTerm++
			return
		}
		r.Term = TermKernel
		r.Final = host
		r.End = now
		if r.Class == "" {
			r.Class = tag
		}
	}
	sp.DeliveredKernel++
	sp.onTerm()
}

// SpanUserDrop records a user-level verdict on a delivered packet — a
// checksum reject, an unclaimed demux frame, a gateway hop/route
// failure — as a born-dead child span, so the kernel delivery and the
// user outcome each terminate exactly once.
func (t *Tracer) SpanUserDrop(parent uint64, now time.Duration, host string, reason DropReason) {
	if t == nil || t.spans == nil || parent == 0 {
		return
	}
	id := t.spans.create(parent, host, FlagChild, now)
	t.SpanDrop(id, now, host, reason)
}

// observeStages folds the record's stage boundaries into the per-host
// segment histograms.  Segments with a missing boundary are skipped
// (kernel-claimed and forked spans do not cross every stage).
func (t *Tracer) observeStages(r *SpanRecord, host string) {
	var when [numStages]time.Duration
	var have [numStages]bool
	for i := 0; i < int(r.NMarks); i++ {
		m := r.Marks[i]
		if !have[m.Stage] {
			when[m.Stage], have[m.Stage] = m.When, true
		}
	}
	for i, seg := range stageSegs {
		if have[seg.from] && have[seg.to] {
			t.hotHist(host, i).Observe(when[seg.to] - when[seg.from])
		}
	}
	if have[StageOrigin] {
		t.spans.total.Observe(r.End - when[StageOrigin])
	}
}

// --- Claim hand-off --------------------------------------------------------
//
// The packet filter offers each frame to the kernel protocol chain
// before matching filters.  The device arms the ambient claim cell
// with the frame's span; a claim-aware stack (inet) takes the span
// and terminates it itself; settle terminates a claimed-but-untaken
// span generically, so claim-unaware kernel protocols (vmtp, rarp)
// still account for every packet they consume.

// SpanClaimArm offers the span to the kernel protocol chain.
func (t *Tracer) SpanClaimArm(id uint64) {
	if t == nil || t.spans == nil {
		return
	}
	sp := t.spans
	sp.claimSpan = id
	sp.claimArmed = true
	sp.claimTaken = false
}

// SpanClaimTake consumes the offered span (claim-aware stacks call it
// when they consume the frame).  Returns 0 when nothing was offered.
func (t *Tracer) SpanClaimTake() uint64 {
	if t == nil || t.spans == nil || !t.spans.claimArmed {
		return 0
	}
	t.spans.claimTaken = true
	return t.spans.claimSpan
}

// SpanClaimSettle closes the claim hand-off: a claimed frame whose
// span nobody took is terminated as generic kernel-protocol
// consumption.
func (t *Tracer) SpanClaimSettle(now time.Duration, host string, claimed bool) {
	if t == nil || t.spans == nil {
		return
	}
	sp := t.spans
	id, taken := sp.claimSpan, sp.claimTaken
	sp.claimSpan, sp.claimArmed, sp.claimTaken = 0, false, false
	if claimed && !taken {
		t.SpanKernelDelivered(id, now, host, "kproto")
	}
}

// --- SLO watchdog ----------------------------------------------------------

// onTerm ticks the watchdog; thresholds are checked every 64
// terminations to keep the hot path cheap.
func (sp *Spans) onTerm() {
	sp.sinceCheck++
	if sp.sinceCheck < 64 || sp.tripped {
		return
	}
	sp.sinceCheck = 0
	if sp.Terminations() < sp.cfg.MinSample {
		return
	}
	if sp.cfg.P99 > 0 && sp.total.Count() > 0 {
		if p99 := sp.total.Quantile(0.99); p99 > sp.cfg.P99 {
			sp.trip(fmt.Sprintf("p99 latency %v exceeds SLO %v", p99, sp.cfg.P99))
			return
		}
	}
	if sp.cfg.MaxDropRate > 0 && sp.Created > 0 {
		if rate := float64(sp.TotalDrops()) / float64(sp.Created); rate > sp.cfg.MaxDropRate {
			sp.trip(fmt.Sprintf("drop rate %.4f exceeds SLO %.4f", rate, sp.cfg.MaxDropRate))
		}
	}
}

func (sp *Spans) trip(reason string) {
	if sp.tripped {
		return
	}
	sp.tripped = true
	sp.anomaly = reason
	if sp.cfg.OnAnomaly != nil {
		sp.cfg.OnAnomaly(reason)
	}
}

// --- Flight recorder -------------------------------------------------------

// VisitRecords calls fn for every retained record, oldest first.
func (sp *Spans) VisitRecords(fn func(*SpanRecord)) {
	if sp.nextID == 0 {
		return
	}
	first := uint64(1)
	if sp.nextID > uint64(len(sp.recs)) {
		first = sp.nextID - uint64(len(sp.recs)) + 1
	}
	for id := first; id <= sp.nextID; id++ {
		if r := sp.rec(id); r != nil {
			fn(r)
		}
	}
}

// RecordsSnapshot copies the retained records, oldest first.
func (sp *Spans) RecordsSnapshot() []SpanRecord {
	var out []SpanRecord
	sp.VisitRecords(func(r *SpanRecord) { out = append(out, *r) })
	return out
}

// Dump writes the flight recorder in human-readable form: aggregate
// accounting, the drop taxonomy, and every retained span record with
// its stage timeline.
func (sp *Spans) Dump(w io.Writer) {
	fmt.Fprintf(w, "flight recorder: %d spans created, %d delivered, %d kernel, %d dropped, %d live\n",
		sp.Created, sp.DeliveredUser, sp.DeliveredKernel, sp.TotalDrops(), sp.Live())
	if sp.Wrapped > 0 || sp.DoubleTerm > 0 {
		fmt.Fprintf(w, "  WARNING: %d live spans evicted by ring wrap, %d double terminations\n",
			sp.Wrapped, sp.DoubleTerm)
	}
	if sp.tripped {
		fmt.Fprintf(w, "  watchdog tripped: %s\n", sp.anomaly)
	}
	fmt.Fprintf(w, "drop taxonomy\n")
	for i, n := range sp.Drops {
		if n > 0 {
			fmt.Fprintf(w, "  %-12s %8d\n", dropNames[i], n)
		}
	}
	fmt.Fprintf(w, "spans (most recent %d)\n", len(sp.recs))
	sp.VisitRecords(func(r *SpanRecord) {
		var b strings.Builder
		fmt.Fprintf(&b, "  #%-6d", r.ID)
		if r.Parent != 0 {
			fmt.Fprintf(&b, " parent=#%d", r.Parent)
		}
		fmt.Fprintf(&b, " %s", r.Origin)
		if r.Final != "" && r.Final != r.Origin {
			fmt.Fprintf(&b, "->%s", r.Final)
		}
		if r.Class != "" {
			fmt.Fprintf(&b, " class=%s", r.Class)
		}
		if r.Port >= 0 {
			fmt.Fprintf(&b, " port=%d", r.Port)
		}
		fmt.Fprintf(&b, " %s", r.TermString())
		if r.Flags&FlagCorrupt != 0 {
			b.WriteString(" corrupt")
		}
		if r.Flags&FlagDup != 0 {
			b.WriteString(" dup")
		}
		if r.Flags&FlagDelayed != 0 {
			b.WriteString(" delayed")
		}
		b.WriteString(" [")
		for i := 0; i < int(r.NMarks); i++ {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s@%v", r.Marks[i].Stage, r.Marks[i].When)
		}
		b.WriteString("]")
		if r.Term != TermLive {
			fmt.Fprintf(&b, " end@%v", r.End)
		}
		fmt.Fprintln(w, b.String())
	})
}

// failer is the slice of *testing.T the flight recorder needs, kept
// structural so this package does not import testing.
type failer interface {
	Failed() bool
	Name() string
	Cleanup(func())
}

// DumpOnFailure registers a test cleanup that writes the flight
// recorder to $FLIGHT_RECORDER_DIR (or the system temp directory) when
// the test fails — the dump CI uploads as a workflow artifact.
func DumpOnFailure(t failer, sp *Spans) {
	if sp == nil {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := os.Getenv("FLIGHT_RECORDER_DIR")
		if dir == "" {
			dir = os.TempDir()
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return
		}
		name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name())
		f, err := os.Create(filepath.Join(dir, name+".flight.txt"))
		if err != nil {
			return
		}
		defer f.Close()
		sp.Dump(f)
	})
}

// DumpOnPanic returns a deferred recover hook that dumps the flight
// recorder to w before re-panicking — how the CLIs surface provenance
// on a crash.
func DumpOnPanic(sp *Spans, w io.Writer) func() {
	return func() {
		if r := recover(); r != nil {
			if sp != nil {
				fmt.Fprintf(w, "panic: %v — flight recorder dump follows\n", r)
				sp.Dump(w)
			}
			panic(r)
		}
	}
}
