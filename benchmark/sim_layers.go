package main

// Fixed-count runs of the sim-receive rig: the exact virtual counters,
// the pinned cost-model check, and the isolated wall-clock probes.

import (
	"time"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// simExact is what a fixed-count run of the rig leaves on the
// receiving host: all of it virtual, so all of it exact.
type simExact struct {
	Frames    uint64
	Delivered uint64
	Counters  vtime.Counters
	KernelNS  time.Duration // receiver-host virtual kernel time
}

// runExact sends exactly frames frames of the paper mix through a
// fresh rig with bound ports, reconciles it, and returns the receiving
// host's account and the wall microseconds per frame.
func runExact(seed int64, bound int, frames uint64, tr *trace.Tracer, t *tally) (simExact, float64) {
	r := newSimRig(seed, bound, tr)
	defer r.stop()
	r.hB.ResetAccounting() // leave the port binding out of the account
	n, wallNS := r.drive(0, frames, nil)
	r.settle()
	r.reconcile(t)
	return simExact{Frames: n, Delivered: r.delivered, Counters: r.hB.Counters, KernelNS: r.hB.KernelTotal()},
		ratio(float64(wallNS)/1e3, float64(n))
}

// The pinned run: seed 1, 4000 frames, 16 ports.  Its account is a
// function of the virtual cost model and the receive path alone; a
// change to either shows here as a failed run, whatever -seed is.
const pinnedFrames = 4000

var pinned = simExact{
	Frames:    pinnedFrames,
	Delivered: 874,
	Counters: vtime.Counters{
		ContextSwitches: 880, Syscalls: 874, DomainCrossings: 1748,
		Copies: 874, BytesCopied: 88972, Wakeups: 874, KernelEntries: 12000,
		PacketsIn: 4000, FilterApplied: 57247, FilterInstrs: 117990,
		PacketsMatched: 874, PacketsDropped: 3126,
	},
	KernelNS: 10832956321,
}

func (b *simBench) checkPinned() {
	got, _ := runExact(1, simPorts, pinnedFrames, nil, &b.t)
	b.t.attempted++
	if got != pinned {
		b.t.fail(1, "sim-receive pinned run changed:\n got  %+v\n want %+v", got, pinned)
	}
}

func (b *simBench) layers(rec *recorder, tracedPPS float64, out map[string]float64) {
	out["sim.wall_us_per_frame"] = ratio(1e6, tracedPPS)

	n := uint64(b.cfg.simExact)
	ex, wall16 := runExact(b.cfg.seed, simPorts, n, nil, &b.t)
	in := float64(ex.Counters.PacketsIn)
	out["pfdev.filter_applied_per_pkt"] = ratio(float64(ex.Counters.FilterApplied), in)
	out["pfdev.filter_instrs_per_pkt"] = ratio(float64(ex.Counters.FilterInstrs), in)
	out["sim.ctx_switches_per_pkt"] = ratio(float64(ex.Counters.ContextSwitches), in)
	out["sim.syscalls_per_pkt"] = ratio(float64(ex.Counters.Syscalls), in)
	out["sim.copies_per_pkt"] = ratio(float64(ex.Counters.Copies), in)
	out["sim.virt_ms_per_pkt"] = ratio(float64(ex.KernelNS)/1e6, float64(ex.Delivered))

	_, wall0 := runExact(b.cfg.seed, 0, n, nil, &b.t)
	out["sim.nomatch_wall_us_per_frame"] = wall0
	_, wall1 := runExact(b.cfg.seed, 1, n, nil, &b.t)
	_, wall64 := runExact(b.cfg.seed, 64, n, nil, &b.t)
	out["pfdev.scan_wall_ns_per_filter"] = (wall64 - wall1) * 1e3 / 63

	tr := trace.New()
	tr.EnableSpans(trace.SpanConfig{})
	_, wallTraced := runExact(b.cfg.seed, simPorts, n, tr, &b.t)
	out["trace.sim_tracer_overhead_pct"] = 100 * (ratio(wallTraced, wall16) - 1)

	// The harness's own share: generating each frame, and hashing it
	// once when sent and once when delivered.
	r := b.rig
	frames := make([][]byte, poolSize)
	out["bench.gen_ns_per_frame"] = perOp(0, poolSize, func() {
		for i := range frames {
			frames[i] = r.gen.Frame(2, 1)
		}
	})
	out["bench.loop_overhead_ns"] = perOp(probeDur, poolSize, func() {
		for _, f := range frames {
			sink += int(frameHash(f) & 1)
		}
	})
}
