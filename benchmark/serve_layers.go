package main

// Per-layer numbers for serve-*: means of the spans the traced run
// recorded, plus probes of the wire and the control socket in
// isolation on the same instance.

import (
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/live"
	"repro/internal/trace"
)

func (s *serve) layers(rec *recorder, tracedPPS float64, out map[string]float64) {
	filters := make([]filter.Filter, servePorts)
	for i := range filters {
		filters[i] = portFilter(i)
	}
	probeInterp(s.pool, filters, out)

	send, _ := rec.meanNS("pkt.send")
	input, _ := rec.meanNS("pkt.input")
	transit, _ := rec.meanNS("rtt.transit")
	handoff, _ := rec.meanNS("rtt.handoff")
	out["live.wire.send_ns"] = send
	out["live.wire.transit_us"] = transit / 1e3
	out["live.control.handoff_us"] = handoff / 1e3
	out["live.device.input_ns"] = input
	out["live.device.overhead_ns"] = input - out["filter.scan_ns_per_pkt"]
	out["rtt.budget_residual_pct"] = 100 * rec.selfShare("rtt")

	rec.churnLayers(out)
	out["live.control.read_batch_size"] = ratio(float64(s.capPackets), float64(s.capReads))

	s.probeControl(out)
	out["live.wire.only_pps"] = s.probeWireOnly(400 * time.Millisecond)

	build := func(tr *trace.Tracer) (*live.Device, []*live.Port, error) {
		dev := live.NewDevice(serveOptions(tr))
		ports := make([]*live.Port, servePorts)
		for i := range ports {
			ports[i] = dev.Open()
			ports[i].SetQueueLimit(portQueue)
			if err := ports[i].SetFilter(filters[i]); err != nil {
				dev.Close()
				return nil, nil, err
			}
		}
		return dev, ports, nil
	}
	pos := 0
	inject := func(dev *live.Device, _ []*live.Port) {
		for i := 0; i < batchFrames; i++ {
			dev.Input(s.pool.frames[pos])
			pos = (pos + 1) & (poolSize - 1)
		}
	}
	drain := func(_ *live.Device, ports []*live.Port) {
		_, _ = ports[servePorts-1].ReadBatch(0, -1) // emptying the probe device
	}
	out["live.device.tracer_overhead_ns"] = tracerOverheadNS(build, inject, drain)

	// The reader's own work per packet: checking a decoded copy
	// against the pool.
	copies := make([][]byte, poolSize)
	for i, f := range s.pool.frames {
		copies[i] = append([]byte(nil), f...)
	}
	out["bench.loop_overhead_ns"] = perOp(probeDur, poolSize, func() {
		for _, c := range copies {
			if s.pool.check(c, servePorts-1) {
				sink++
			}
		}
	})
	out["bench.gen_ns_per_frame"] = perOp(0, poolSize, func() { newPool(s.cfg.seed, servePorts, servePorts-1, s.payload, 0) })

	if st, err := s.ctl.Stats(); err == nil {
		for _, sg := range st.Stages {
			switch sg.Stage {
			case "filter":
				out["live.stats.stage_filter_mean_ns"] = float64(sg.Mean)
			case "queue":
				out["live.stats.stage_queue_mean_us"] = float64(sg.Mean) / 1e3
			}
		}
		var dropped uint64
		for _, ps := range st.Ports {
			dropped += ps.Dropped
			if ps.ID == s.hot {
				out["live.port.read_batch_size"] = ratio(float64(ps.BatchPackets), float64(ps.BatchReads))
			}
		}
		out["live.port.overflow_drops"] = float64(dropped)
		out["live.device.kernel_drops"] = float64(st.Device.KernelDrops)
	}
}

// probeControl times the control socket in isolation, on the running
// instance: an empty read, a read draining a pre-filled queue, a
// setfilter and a stats round trip — and the device's own ReadBatch
// beneath the read.
func (s *serve) probeControl(out map[string]float64) {
	idle, err := s.ctl.Open(0, false, false)
	if err != nil {
		s.t.fail(1, "control probe: %v", err)
		return
	}
	out["live.control.read_rtt_us"] = perOp(probeDur, 1, func() {
		_, _ = s.ctl.Read(idle, 0, 0) // timing the round trip; the reply is empty
	}) / 1e3
	f := s.cold[0]
	out["live.control.setfilter_us"] = perOp(probeDur, 1, func() {
		_ = s.ctl.SetFilter(idle, f) // timing the round trip; ClosePort below reports a dead connection
	}) / 1e3
	out["live.control.stats_us"] = perOp(probeDur, 1, func() {
		_, _ = s.ctl.Stats() // timing the round trip
	}) / 1e3
	if err := s.ctl.ClosePort(idle); err != nil {
		s.t.fail(1, "control probe: %v", err)
	}

	// Pre-fill the hot port by handing frames straight to the device
	// (the traced run owns it), then drain it over the control socket
	// 64 packets a read.
	const fill = 1024
	var perRead, perBatch []float64
	got := make([][]byte, 0, fill)
	for rep := 0; rep < 8; rep++ {
		s.inputDirect(fill)
		got = got[:0]
		t0 := now()
		for len(got) < fill {
			pkts, err := s.rc.Read(s.hot, batchFrames, 0)
			if err != nil || len(pkts) == 0 {
				break
			}
			got = append(got, pkts...)
		}
		perRead = append(perRead, float64(now()-t0)/fill)
		s.checkDirect(got, fill)
	}
	out["live.control.read_ns_per_pkt"] = median(perRead)

	// The same queue drained in-process: Port.ReadBatch alone.
	port := s.dev.Port(s.hot)
	for rep := 0; rep < 256; rep++ {
		s.inputDirect(batchFrames)
		t0 := now()
		pkts, _ := port.ReadBatch(0, -1)
		perBatch = append(perBatch, float64(now()-t0)/batchFrames)
		got = got[:0]
		for _, p := range pkts {
			got = append(got, p.Data)
		}
		s.checkDirect(got, batchFrames)
	}
	out["live.port.readbatch_ns_per_pkt"] = median(perBatch)
}

// inputDirect hands n pool frames to Device.Input, bypassing the wire.
func (s *serve) inputDirect(n int) {
	for i := 0; i < n; i++ {
		_, frame := s.next()
		s.dev.Input(frame)
	}
	s.direct += uint64(n)
	s.t.attempted += uint64(n)
}

// checkDirect verifies the frames a probe read back.
func (s *serve) checkDirect(got [][]byte, want int) {
	s.delivered += uint64(len(got))
	if len(got) != want {
		s.t.fail(absDiff(uint64(len(got)), uint64(want)), "probe read back %d of %d frames", len(got), want)
	}
	for _, p := range got {
		if !s.pool.check(p, servePorts-1) {
			s.t.fail(1, "probe read back an altered frame")
		}
	}
}

// probeWireOnly is the wire's ceiling with no device behind it: a
// ListenWire whose handler only counts, driven closed-loop at W=128.
func (s *serve) probeWireOnly(d time.Duration) float64 {
	credits := make(chan struct{}, window) // one per frame in flight
	var handled atomic.Uint64
	w, err := live.ListenWire("127.0.0.1:0", func([]byte) {
		handled.Add(1)
		credits <- struct{}{}
	})
	if err != nil {
		return 0
	}
	defer w.Close()
	snd, err := live.DialWire(w.Addr().String())
	if err != nil {
		return 0
	}
	defer snd.Close()

	// A shed datagram would leave the injector waiting for ever.
	stall := time.NewTimer(time.Hour)
	defer stall.Stop()
	wait := func() bool {
		select {
		case <-credits:
			return true
		default:
		}
		if !stall.Stop() {
			select {
			case <-stall.C:
			default:
			}
		}
		stall.Reset(500 * time.Millisecond)
		select {
		case <-credits:
			return true
		case <-stall.C:
			return false
		}
	}
	credit, n := window, uint64(0)
	start := now()
	for n&15 != 0 || now()-start < int64(d) {
		if credit == 0 {
			if !wait() {
				break
			}
			credit++
		}
		_, frame := s.next()
		if snd.Send(frame) != nil {
			break
		}
		credit--
		n++
	}
	for credit < window && wait() {
		credit++
	}
	elapsed := now() - start
	if got := handled.Load(); got != n {
		s.t.fail(n-got, "wire-only probe: sent %d, handled %d", n, got)
	}
	return ratio(float64(n)*1e9, float64(elapsed))
}
