package pfdev

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Packet is one received packet as returned by Read: the complete
// frame including the data-link header ("The entire packet, including
// the data-link layer header, is returned, so that user programs may
// implement protocols that depend on header information", §3), plus
// the optional timestamp and the cumulative drop count (§3.3).
type Packet struct {
	Data []byte
	// Stamp is the reception time, zero unless stamping is on when the
	// packet is read.  While the packet is queued it holds the enqueue
	// time, which the read subtracts for the port's queue-residency
	// accounting (a separate field would take the packet past 64 bytes).
	Stamp time.Duration
	Drops uint64 // packets lost on this port up to this packet

	// arrived is when the frame entered the packet-filter input path,
	// the start of the arrival-to-delivery latency the tracer reports.
	arrived time.Duration

	// slot, when non-zero, is 1 + the ring receive slot holding Data.
	// The slot stays reserved — free for neither deposit nor reuse —
	// until the packet is copied out (Read/ReadBatch) or, after a
	// reap, until the process's next drain syscall reclaims it.
	slot int

	// span is the packet's provenance span (0 when untracked).
	span uint64
}

// Span returns the packet's provenance span id (0 when untracked), so
// user-level protocol code can link its own verdicts — checksum
// rejects, routing failures — back into the packet's causal tree.
func (pkt Packet) Span() uint64 { return pkt.span }

// DefaultQueueLimit bounds a port's input queue unless configured
// otherwise (§3.3: the user controls "the maximum length of the
// per-port input queue").
const DefaultQueueLimit = 32

// PortQueue is one port's input queue and its accounting: the limit
// and the §3.3 loss count, the stamping switch, read counters, queue
// residency, and the trace instruments keyed by port.  Both devices'
// Port types embed it; each keeps its own way of blocking a reader (a
// sim.WaitQ, or a sync.Cond and a clock timer) and calls these with its
// own clock reading and the port's id.
type PortQueue struct {
	// queue is head-indexed: qhead marks the first undelivered packet
	// and dequeues advance it instead of re-slicing, so the backing
	// array's capacity survives and the steady-state receive path
	// allocates nothing.
	queue      []Packet
	qhead      int
	queueLimit int
	maxQueued  int // high-water mark of the input queue
	dropped    uint64
	stamp      bool

	reads   uint64 // successful Read calls
	batches uint64 // successful ReadBatch calls
	batched uint64 // packets returned by ReadBatch

	// Queue-residency accounting: total and count of time delivered
	// packets spent on the input queue.
	qresSum time.Duration
	qresN   uint64

	qGauge *trace.Gauge // cached tracer gauge for queue depth
	// spanDropCtrs caches the per-port drop-taxonomy counters
	// ("pf.port<id>.span_drop.<reason>") so steady-state drops do not
	// build counter names.  It is allocated with the first counter: kept
	// inline, its mostly-nil pointers, one per drop reason, grew package
	// live's Port into the 512-byte size class, whose stride maps every
	// port's scanned fields onto the same few L1 cache sets.
	spanDropCtrs *[trace.NumDropReasons]*trace.Counter

	host  string // trace host label
	total *int   // the device's count of packets queued on all ports
}

// InitQueue readies a newly opened port's queue: the default limit,
// the device's trace host label, and the device-wide queued-packet
// count it keeps in step (the governor's backlog signal).
func (q *PortQueue) InitQueue(host string, total *int) {
	q.queueLimit = DefaultQueueLimit
	q.host, q.total = host, total
}

// SetQueueLimit sets the maximum input-queue length (at least 1).
func (q *PortQueue) SetQueueLimit(n int) {
	if n < 1 {
		n = 1
	}
	q.queueLimit = n
}

// SetStamp enables receive timestamping.
func (q *PortQueue) SetStamp(on bool) { q.stamp = on }

// Len returns the input-queue depth.
func (q *PortQueue) Len() int { return len(q.queue) - q.qhead }

// queued returns the live (undelivered) packets in queue order.
func (q *PortQueue) queued() []Packet { return q.queue[q.qhead:] }

// Full reports whether the queue holds its limit — or limitCap, when
// that is positive and lower — so the next frame must be dropped.
func (q *PortQueue) Full(limitCap int) bool {
	limit := q.queueLimit
	if limitCap > 0 && limitCap < limit {
		limit = limitCap
	}
	return q.Len() >= limit
}

// popFront consumes n packets from the queue head, clearing consumed
// slots (so delivered frames are not retained) and recycling the
// backing array once drained or mostly consumed.
func (q *PortQueue) popFront(n int) {
	for i := q.qhead; i < q.qhead+n; i++ {
		q.queue[i] = Packet{}
	}
	q.qhead += n
	*q.total -= n
	switch {
	case q.qhead == len(q.queue):
		q.queue = q.queue[:0]
		q.qhead = 0
	case q.qhead >= 32 && 2*q.qhead >= len(q.queue):
		kept := copy(q.queue, q.queue[q.qhead:])
		for i := kept; i < len(q.queue); i++ {
			q.queue[i] = Packet{}
		}
		q.queue = q.queue[:kept]
		q.qhead = 0
	}
}

// Overflow accounts a frame the port could not take: the port's loss
// count, the "queue" drop with its per-port taxonomy counter, and the
// span's termination as reason.
func (q *PortQueue) Overflow(tr *trace.Tracer, now time.Duration, id int, span uint64, reason trace.DropReason) {
	q.dropped++
	if tr == nil {
		return
	}
	tr.Drop(now, q.host, "queue")
	if span != 0 {
		q.spanDropCounter(tr, id, reason).Add(1)
	}
	tr.SpanDrop(span, now, q.host, reason)
	tr.SpanPort(span, id)
}

// Push queues a frame that entered the packet-filter input path at
// arrived, stamped with the enqueue time now, and returns the queued
// packet.  The caller has checked Full.
func (q *PortQueue) Push(tr *trace.Tracer, now time.Duration, id int, frame []byte, arrived time.Duration, span uint64) *Packet {
	q.queue = append(q.queue, Packet{Data: frame, Stamp: now, Drops: q.dropped, arrived: arrived, span: span})
	pkt := &q.queue[len(q.queue)-1]
	*q.total++
	if q.Len() > q.maxQueued {
		q.maxQueued = q.Len()
	}
	if tr != nil {
		q.depthGauge(tr, id).Set(int64(q.Len()))
		tr.Enqueue(now, q.host, id, q.Len())
	}
	tr.SpanMark(span, trace.StageQueue, now)
	tr.SpanPort(span, id)
	return pkt
}

// TakeOne dequeues the head packet for a single-packet read at now.
func (q *PortQueue) TakeOne(now time.Duration) Packet {
	var pkt [1]Packet
	q.take(pkt[:], now)
	q.reads++
	return pkt[0]
}

// TakeBatch dequeues len(dst) packets into dst for one batch read at
// now.
func (q *PortQueue) TakeBatch(dst []Packet, now time.Duration) {
	q.take(dst, now)
	q.batches++
	q.batched += uint64(len(dst))
}

// take dequeues len(dst) packets into dst, accounting their queue
// residency up to now and clearing their stamps unless stamping is on.
func (q *PortQueue) take(dst []Packet, now time.Duration) {
	copy(dst, q.queued())
	q.popFront(len(dst))
	for i := range dst {
		q.qresSum += now - dst[i].Stamp
		if !q.stamp {
			dst[i].Stamp = 0
		}
	}
	q.qresN += uint64(len(dst))
}

// Delivered traces packets handed to the reading process at now: the
// queue depth left behind, and each packet's arrival-to-delivery
// latency and span delivery.
func (q *PortQueue) Delivered(tr *trace.Tracer, now time.Duration, id int, pkts ...Packet) {
	if tr == nil {
		return
	}
	q.depthGauge(tr, id).Set(int64(q.Len()))
	tr.Dequeue(now, q.host, id, q.Len(), len(pkts))
	for _, pkt := range pkts {
		tr.Deliver(now, q.host, id, now-pkt.arrived)
		tr.SpanDelivered(pkt.span, now, q.host, id)
	}
}

// Discard empties the queue of a port going away (close or crash):
// the queued packets will never be read, so their spans die as reason.
func (q *PortQueue) Discard(tr *trace.Tracer, now time.Duration, reason trace.DropReason) {
	*q.total -= q.Len()
	for _, pkt := range q.queued() {
		tr.SpanDrop(pkt.span, now, q.host, reason)
	}
	q.queue, q.qhead = nil, 0
}

// QueueStats fills in the queue's fields of a statistics block.
func (q *PortQueue) QueueStats(ps *PortStats) {
	ps.Queued = q.Len()
	ps.MaxQueued = q.maxQueued
	ps.Dropped = q.dropped
	ps.Reads = q.reads
	ps.BatchReads = q.batches
	ps.BatchPackets = q.batched
	if q.qresN > 0 {
		ps.AvgResidency = q.qresSum / time.Duration(q.qresN)
	}
}

// spanDropCounter returns (caching) the per-port taxonomy counter for
// one drop reason.
func (q *PortQueue) spanDropCounter(tr *trace.Tracer, id int, reason trace.DropReason) *trace.Counter {
	if q.spanDropCtrs == nil {
		q.spanDropCtrs = new([trace.NumDropReasons]*trace.Counter)
	}
	c := q.spanDropCtrs[reason]
	if c == nil {
		c = tr.Counter(q.host, fmt.Sprintf("pf.port%d.span_drop.%s", id, reason))
		q.spanDropCtrs[reason] = c
	}
	return c
}

// depthGauge returns (caching) the tracer gauge for the queue depth.
func (q *PortQueue) depthGauge(tr *trace.Tracer, id int) *trace.Gauge {
	if q.qGauge == nil {
		q.qGauge = tr.Gauge(q.host, fmt.Sprintf("pf.port%d.depth", id))
	}
	return q.qGauge
}

// DropUnmatched accounts a frame no port accepted: DropQuota when its
// match skipped a quarantined filter (the governor, not the filter set,
// decided its fate), DropNoMatch otherwise.
func DropUnmatched(tr *trace.Tracer, now time.Duration, host string, span uint64, quarSkip bool) {
	reason, label := trace.DropNoMatch, "nomatch"
	if quarSkip {
		reason, label = trace.DropQuota, "quota"
	}
	if tr != nil {
		tr.Drop(now, host, label)
	}
	tr.SpanDrop(span, now, host, reason)
}
