package main

// demux-linear, demux-table, churn-table: an in-process live.Device
// driven by one goroutine.  Each batch hands 64 pool frames to
// Device.Input, then drains the ports those frames were addressed to
// with a non-blocking ReadBatch and checks every packet returned.

import (
	"fmt"
	"time"

	"repro/internal/filter"
	"repro/internal/live"
	"repro/internal/pfdev"
	"repro/internal/trace"
)

const batchFrames = 64

type demux struct {
	cfg    config
	mode   pfdev.EvalMode
	nports int
	churny bool // churn-table: one cold-port churn per batch, inside the capacity loop

	dev   *live.Device
	ports []*live.Port
	pool  *pool
	cold  []filter.Filter

	pos     int // pool cursor
	nchurn  int
	mark    []bool
	touched []int
	batches [][]live.Packet // ReadBatch results of the current batch
	seq     uint64          // batch number, the spans' packet id

	planned uint64 // no-match frames injected: each must become a kernel drop
	t       tally

	// Sums over the traced capacity batches, for the per-layer means.
	inputNS, readNS, verifyNS int64
	tracedPkts, tracedRead    uint64
}

func newDemux(cfg config) *demux {
	d := &demux{cfg: cfg, mode: pfdev.EvalChecked, nports: 64}
	if cfg.workload != wDemuxLinear {
		d.mode, d.nports = pfdev.EvalTable, 1024
	}
	d.churny = cfg.workload == wChurnTable
	return d
}

func (d *demux) tally() *tally { return &d.t }

func (d *demux) shares() (float64, float64, float64) {
	if d.churny {
		return 0.85, 0.15, 0 // churn ops are timed inside the capacity loop
	}
	return 0.75, 0.15, 0.10
}

// newDevice builds a device in the workload's mode with every port
// bound; tr may be nil.
func (d *demux) newDevice(tr *trace.Tracer) (*live.Device, []*live.Port, error) {
	dev := live.NewDevice(live.Options{Link: link, Mode: d.mode, Tracer: tr})
	ports := make([]*live.Port, d.nports)
	for i := range ports {
		ports[i] = dev.Open()
		// Deep enough that a batch landing on one port never overflows.
		ports[i].SetQueueLimit(2 * batchFrames)
		if err := ports[i].SetFilter(portFilter(i)); err != nil {
			dev.Close()
			return nil, nil, fmt.Errorf("setfilter port %d: %w", i, err)
		}
	}
	return dev, ports, nil
}

func (d *demux) setup() error {
	dev, ports, err := d.newDevice(nil)
	if err != nil {
		return err
	}
	d.dev, d.ports = dev, ports
	d.pool = newPool(d.cfg.seed, d.nports, -1, 32, 0.10)
	if d.cfg.misaddress {
		for i, e := range d.pool.expect {
			if e >= 0 {
				d.pool.expect[i] = (e + 1) % d.nports
				break
			}
		}
	}
	d.cold = coldFilters()
	d.mark = make([]bool, d.nports)
	d.touched = make([]int, 0, batchFrames)
	d.batches = make([][]live.Packet, 0, batchFrames)
	d.pos, d.planned = 0, 0
	return nil
}

func (d *demux) teardown() {
	if d.dev != nil {
		d.dev.Close()
		d.dev = nil
	}
}

// inject hands the next n pool frames to the device, notes which
// ports they were addressed to, and returns how many were planned
// no-match frames.
func (d *demux) inject(dev *live.Device, n int) (misses uint64) {
	for i := 0; i < n; i++ {
		idx := d.pos
		d.pos = (d.pos + 1) & (poolSize - 1)
		dev.Input(d.pool.frames[idx])
		e := d.pool.expect[idx]
		switch {
		case e < 0:
			misses++
		case !d.mark[e]:
			d.mark[e] = true
			d.touched = append(d.touched, e)
		}
	}
	return misses
}

// drain reads every touched port once, without blocking.
func (d *demux) drain(ports []*live.Port) {
	d.batches = d.batches[:0]
	for _, e := range d.touched {
		pkts, err := ports[e].ReadBatch(0, -1)
		if err != nil {
			pkts = nil // an empty port: the frame went elsewhere; verify counts it
		}
		d.batches = append(d.batches, pkts)
	}
}

// verify checks the drained packets and returns how many were
// delivered and their payload bytes.
func (d *demux) verify() (delivered, bytes uint64) {
	for k, e := range d.touched {
		for _, pkt := range d.batches[k] {
			if !d.pool.check(pkt.Data, e) {
				d.t.fail(1, "port %d returned a frame that is not the one addressed to it", e)
			}
		}
		delivered += uint64(len(d.batches[k]))
		d.mark[e] = false
	}
	d.touched = d.touched[:0]
	return delivered, delivered * uint64(d.pool.payload)
}

// churnOnce opens a cold port, binds a cold filter and closes it,
// returning the three boundaries' timestamps.
func (d *demux) churnOnce() (t0, t1, t2, t3 int64, err error) {
	f := d.cold[d.nchurn%len(d.cold)]
	d.nchurn++
	t0 = now()
	p := d.dev.Open()
	t1 = now()
	err = p.SetFilter(f)
	t2 = now()
	p.Close()
	t3 = now()
	return
}

func (d *demux) recordChurn(rec *recorder, rd *roundData, t0, t1, t2, t3 int64, err error) {
	d.t.attempted++
	if err != nil {
		d.t.fail(1, "churn setfilter: %v", err)
	}
	rd.churn = append(rd.churn, t3-t0)
	if rec != nil {
		rec.addChurn(d.seq, t0, t1, t2, t3)
	}
}

func (d *demux) capacity(dur time.Duration, rec *recorder, rd *roundData) {
	drops0 := d.dev.KernelDrops()
	planned0 := d.planned
	var injected, delivered uint64
	start := now()
	for {
		d.seq++
		var t0, t1, t2, t3 int64
		if rec != nil {
			t0 = now()
		}
		d.planned += d.inject(d.dev, batchFrames)
		if rec != nil {
			t1 = now()
		}
		d.drain(d.ports)
		if rec != nil {
			t2 = now()
		}
		n, b := d.verify()
		if rec != nil {
			t3 = now()
			// Every 64th batch is kept as spans; all of them would be
			// 10^5 spans a second for no more information.
			if d.seq%64 == 0 && rec.room(4) {
				id := rec.add("batch", t0, t3, 0, d.seq)
				rec.add("batch.input", t0, t1, id, d.seq)
				rec.add("batch.readbatch", t1, t2, id, d.seq)
				rec.add("batch.verify", t2, t3, id, d.seq)
			}
			d.inputNS += t1 - t0
			d.readNS += t2 - t1
			d.verifyNS += t3 - t2
			d.tracedPkts += batchFrames
			d.tracedRead += n
		}
		injected += batchFrames
		delivered += n
		rd.bytes += b
		if d.churny {
			c0, c1, c2, c3, err := d.churnOnce()
			d.recordChurn(rec, rd, c0, c1, c2, c3, err)
		}
		if now()-start >= int64(dur) {
			break
		}
	}
	rd.elapsed += now() - start
	rd.packets += injected
	d.t.attempted += injected

	// Conservation for the phase: every frame was delivered to its
	// port or was a planned no-match the device counted as a drop.
	misses := d.planned - planned0
	if got := d.dev.KernelDrops() - drops0; got != misses {
		d.t.fail(absDiff(got, misses), "kernel drops %d, planned no-match frames %d", got, misses)
	}
	if delivered+misses != injected {
		d.t.fail(absDiff(delivered+misses, injected), "injected %d != delivered %d + no-match %d", injected, delivered, misses)
	}
	d.sweep()
}

// sweep looks for frames left on any port: a frame the device queued
// where the harness did not expect it.
func (d *demux) sweep() {
	if q := d.dev.Counts().QueuedNow; q != 0 {
		d.t.fail(uint64(q), "%d frames left queued on ports they were not addressed to", q)
		for _, p := range d.ports {
			_, _ = p.ReadBatch(0, -1) // emptying; ErrWouldBlock is the common case
		}
	}
}

func (d *demux) pingpong(dur time.Duration, rec *recorder, rd *roundData) {
	start := now()
	for now()-start < int64(dur) {
		idx := d.pos
		d.pos = (d.pos + 1) & (poolSize - 1)
		e := d.pool.expect[idx]
		if e < 0 {
			continue // a no-match frame has no round trip
		}
		d.seq++
		t0 := now()
		d.dev.Input(d.pool.frames[idx])
		t1 := now()
		pkts, err := d.ports[e].ReadBatch(0, -1)
		t2 := now()
		d.t.attempted++
		if err != nil || len(pkts) != 1 || !d.pool.check(pkts[0].Data, e) {
			d.t.fail(1, "ping-pong: frame %d did not come back from port %d (err %v, %d packets)", idx, e, err, len(pkts))
			d.sweep()
			continue
		}
		rd.rtt = append(rd.rtt, t2-t0)
		if rec != nil && d.seq%8 == 0 && rec.room(3) {
			id := rec.add("rtt", t0, t2, 0, d.seq)
			rec.add("rtt.input", t0, t1, id, d.seq)
			rec.add("rtt.readbatch", t1, t2, id, d.seq)
		}
	}
}

// churn times cold-port churn beside traffic: one open+setfilter+close
// after every 64-frame batch, as churn-table does all the time.  (A
// bare loop of churn operations would time the allocator and the
// collector more than the device.)
func (d *demux) churn(dur time.Duration, rec *recorder, rd *roundData) {
	if d.churny {
		return
	}
	start := now()
	for now()-start < int64(dur) {
		d.seq++
		d.planned += d.inject(d.dev, batchFrames)
		d.drain(d.ports)
		n, _ := d.verify()
		d.t.attempted += n
		t0, t1, t2, t3, err := d.churnOnce()
		d.recordChurn(rec, rd, t0, t1, t2, t3, err)
	}
	d.sweep()
}

func (d *demux) finish() {
	d.sweep()
	var dropped uint64
	for _, st := range d.dev.PortStats() {
		dropped += st.Dropped
	}
	if dropped != 0 {
		d.t.fail(dropped, "%d port overflow drops", dropped)
	}
	if got := d.dev.KernelDrops(); got != d.planned {
		d.t.fail(absDiff(got, d.planned), "kernel drops %d over the run, planned no-match frames %d", got, d.planned)
	}
	if n := len(d.dev.PortStats()); n != d.nports {
		d.t.fail(1, "%d ports open at the end, want %d (a churn port leaked)", n, d.nports)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// tracerOverheadNS is Device.Input per packet with a span tracer
// minus with Tracer nil: two more devices like the workload's, fed the
// same batches turn and turn about.
func (d *demux) tracerOverheadNS() float64 {
	return tracerOverheadNS(d.newDevice, func(dev *live.Device, ports []*live.Port) {
		d.inject(dev, batchFrames)
	}, func(dev *live.Device, ports []*live.Port) {
		d.drain(ports)
		for _, e := range d.touched {
			d.mark[e] = false
		}
		d.touched = d.touched[:0]
	})
}

// tracerOverheadNS is the tracer-on/tracer-off Input probe shared by
// the live workloads: inject hands one batch to a device (the timed
// part), drain empties it again.  The result is the median over
// batches of the paired difference, per packet.
func tracerOverheadNS(build func(*trace.Tracer) (*live.Device, []*live.Port, error),
	inject, drain func(*live.Device, []*live.Port)) float64 {
	tr := trace.New()
	tr.EnableSpans(trace.SpanConfig{Ring: spanRing}) // what live.Start gives a pfserve
	on, onPorts, err := build(tr)
	if err != nil {
		return 0
	}
	defer on.Close()
	off, offPorts, err := build(nil)
	if err != nil {
		return 0
	}
	defer off.Close()
	timed := func(dev *live.Device, ports []*live.Port) int64 {
		t0 := now()
		inject(dev, ports)
		dt := now() - t0
		drain(dev, ports)
		return dt
	}
	var diffs []float64
	start := now()
	for i := 0; len(diffs) < 5000 && (i < 16 || now()-start < int64(300*time.Millisecond)); i++ {
		a, b := timed(on, onPorts), timed(off, offPorts)
		if i >= 8 { // the first batches grow the queues
			diffs = append(diffs, float64(a-b)/batchFrames)
		}
	}
	return median(diffs)
}

func (d *demux) layers(rec *recorder, tracedPPS float64, out map[string]float64) {
	filters := make([]filter.Filter, d.nports)
	for i := range filters {
		filters[i] = portFilter(i)
	}
	filterShare := 0.0
	if d.mode == pfdev.EvalTable {
		if bad := probeTable(d.pool, filters, d.cold, out); bad != 0 {
			d.t.fail(bad, "filter.Table.Match disagreed with the pool's addressing on %d frames", bad)
		}
		filterShare = out["filter.table.match_ns"]
	} else {
		probeInterp(d.pool, filters, out)
		filterShare = out["filter.scan_ns_per_pkt"]
	}

	pk := float64(d.tracedPkts)
	input := ratio(float64(d.inputNS), pk)
	out["live.device.input_ns"] = input
	out["live.device.overhead_ns"] = input - filterShare
	out["live.port.readbatch_ns_per_pkt"] = ratio(float64(d.readNS), float64(d.tracedRead))
	out["bench.loop_overhead_ns"] = ratio(float64(d.verifyNS), pk)

	var reads, packets, dropped uint64
	for _, st := range d.dev.PortStats() {
		reads += st.BatchReads
		packets += st.BatchPackets
		dropped += st.Dropped
	}
	out["live.port.read_batch_size"] = ratio(float64(packets), float64(reads))
	out["live.port.overflow_drops"] = float64(dropped)
	out["live.device.kernel_drops"] = float64(d.dev.KernelDrops()) - float64(d.planned)

	churnNS := rec.churnLayers(out)
	out["live.device.tracer_overhead_ns"] = d.tracerOverheadNS()

	// The budget: what one packet costs in the loop against what the
	// layers account for.
	perPkt := ratio(1e9, tracedPPS)
	accounted := input + ratio(float64(d.readNS), pk)
	if d.churny {
		accounted += churnNS / batchFrames
	}
	out["demux.budget_residual_pct"] = 100 * ratio(perPkt-accounted, perPkt)

	out["bench.gen_ns_per_frame"] = perOp(0, poolSize, func() { newPool(d.cfg.seed, d.nports, -1, 32, 0.10) })
}
