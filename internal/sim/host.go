package sim

import (
	"time"

	"repro/internal/clock"
	"repro/internal/vtime"
)

// Host is one simulated machine: a uniprocessor CPU shared by kernel
// interrupt work and processes, plus whatever devices other packages
// attach (network interfaces, the packet-filter pseudodevice, the
// kernel-resident protocol stack).
type Host struct {
	sim  *Sim
	name string

	// Counters holds per-host event counts.
	Counters vtime.Counters

	// cpu state: a single processor with interrupt work served
	// ahead of process work, matching the VAX's interrupt priority
	// levels.  The queues reuse their backing arrays (see fifo), so a
	// steady-state receive path enqueues and dequeues without touching
	// the allocator.
	cpuBusy   bool
	intrQ     fifo[*cpuReq]
	procQ     fifo[*cpuReq]
	lastOwner *Proc // last process granted the CPU

	// Grant completion state: cpuBusy serializes grants, so at most
	// one request is ever in flight and a single pre-bound callback
	// (completeFn) plus a free list of requests keeps the per-grant
	// path allocation-free.
	running    *cpuReq
	runEpoch   uint64
	grant      *event // the completion event of running
	completeFn func()
	reqFree    []*cpuReq

	// lifecycle state for fault injection: a paused host stops
	// granting its CPU but keeps all queued work; a crashed host
	// additionally loses its interrupt queue and in-flight kernel
	// work (epoch guards the completions already scheduled).
	paused     bool
	down       bool
	epoch      uint64
	crashHooks []func()

	// KernelTime accumulates kernel-mode CPU by category ("pf",
	// "filter", "ip", "driver", ...) so experiments can reproduce
	// the §6.1 gprof-style breakdown.
	KernelTime map[string]time.Duration
	// UserTime is CPU consumed in user mode by processes.
	UserTime time.Duration

	// lanes are the host's parallel kernel threads for multi-queue
	// receive: each lane is an independent serial server for
	// interrupt-level work, running concurrently in virtual time
	// with the main CPU and with the other lanes.  Empty until
	// SetKernelLanes configures them; single-queue hosts never touch
	// this path.
	lanes []*kernelLane
}

// kernelLane is one parallel kernel thread.  It mirrors the main
// CPU's interrupt-queue discipline (fifo queue, pre-bound
// completion, epoch-guarded crash semantics) but has no process work
// and no context switches: lanes only ever run RunKernelOn grants.
type kernelLane struct {
	busy       bool
	q          fifo[*cpuReq]
	running    *cpuReq
	runEpoch   uint64
	completeFn func()
}

type cpuReq struct {
	d    time.Duration
	proc *Proc  // non-nil for process work
	fn   func() // non-nil for kernel work completion
	tag  string
}

// NewHost adds a host to the simulation.
func (s *Sim) NewHost(name string) *Host {
	h := &Host{sim: s, name: name, KernelTime: make(map[string]time.Duration)}
	h.completeFn = h.complete
	s.hosts = append(s.hosts, h)
	return h
}

// getReq takes a request from the free list (or allocates one).
func (h *Host) getReq(d time.Duration, proc *Proc, fn func(), tag string) *cpuReq {
	if n := len(h.reqFree); n > 0 {
		r := h.reqFree[n-1]
		h.reqFree[n-1] = nil
		h.reqFree = h.reqFree[:n-1]
		*r = cpuReq{d: d, proc: proc, fn: fn, tag: tag}
		return r
	}
	return &cpuReq{d: d, proc: proc, fn: fn, tag: tag}
}

// putReq returns a completed request to the free list.
func (h *Host) putReq(r *cpuReq) {
	*r = cpuReq{}
	h.reqFree = append(h.reqFree, r)
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Sim returns the owning simulation.
func (h *Host) Sim() *Sim { return h.sim }

// Clock returns the host's time source — the owning simulation's
// virtual clock.  Device code timestamps through this interface so the
// identical code hosts live traffic on a clock.Wall.
func (h *Host) Clock() clock.Clock { return h.sim }

// Costs returns the simulation cost model.
func (h *Host) Costs() vtime.Costs { return h.sim.costs }

// RunKernel charges d of kernel CPU at interrupt level, accounted
// under tag, then calls fn (which may be nil) in event-loop context.
// This is how device drivers and the packet filter consume time: the
// work queues if the CPU is busy and is served before process work.
func (h *Host) RunKernel(tag string, d time.Duration, fn func()) {
	h.Counters.KernelEntries++
	h.sim.Counters.KernelEntries++
	h.intrQ.push(h.getReq(d, nil, fn, tag))
	h.pump()
}

// SetKernelLanes configures n parallel kernel threads on the host
// (idempotent; shrinking is not supported — lanes model hardware
// queues fixed at attach time).  Lane work is charged through
// RunKernelOn; with no lanes configured, or lane < 0, RunKernelOn
// degenerates to RunKernel and the host stays a pure uniprocessor.
func (h *Host) SetKernelLanes(n int) {
	for len(h.lanes) < n {
		l := &kernelLane{}
		l.completeFn = func() { h.laneComplete(l) }
		h.lanes = append(h.lanes, l)
	}
}

// KernelLanes returns the number of configured parallel kernel lanes.
func (h *Host) KernelLanes() int { return len(h.lanes) }

// RunKernelOn charges d of kernel CPU on the given parallel kernel
// lane, accounted under tag, then calls fn (which may be nil) in
// event-loop context.  Lane < 0 — or a lane the host never
// configured — falls back to RunKernel on the main CPU, so
// single-queue callers are byte-identical to the pre-lane world.
// Lane work runs concurrently (in virtual time) with the main CPU:
// this is the §7 "demultiplexing in parallel" model.
func (h *Host) RunKernelOn(lane int, tag string, d time.Duration, fn func()) {
	if lane < 0 || lane >= len(h.lanes) {
		h.RunKernel(tag, d, fn)
		return
	}
	h.Counters.KernelEntries++
	h.sim.Counters.KernelEntries++
	l := h.lanes[lane]
	l.q.push(h.getReq(d, nil, fn, tag))
	h.lanePump(l)
}

// lanePump grants the lane to its next queued request if idle.
func (h *Host) lanePump(l *kernelLane) {
	if l.busy || h.paused || h.down || l.q.len() == 0 {
		return
	}
	r := l.q.pop()
	if tr := h.sim.tracer; tr != nil {
		tr.KernelSlice(h.sim.now, h.name, r.tag, "", r.d)
	}
	l.busy = true
	l.running = r
	l.runEpoch = h.epoch
	h.sim.After(r.d, l.completeFn)
}

// laneComplete finishes the lane's in-flight grant, mirroring
// complete() minus the process half.
func (h *Host) laneComplete(l *kernelLane) {
	l.busy = false
	r := l.running
	l.running = nil
	// A crash while this lane work was in flight loses its kernel half.
	if h.epoch == l.runEpoch {
		h.charge(r)
		if r.fn != nil {
			r.fn()
		}
	}
	h.putReq(r)
	h.lanePump(l)
}

// requestCPU enqueues process work and returns once it completes.
// Called from process context via Proc.Consume and the syscall
// helpers.
func (h *Host) requestCPU(p *Proc, d time.Duration, tag string) {
	r := h.getReq(d, p, nil, tag)
	h.procQ.push(r)
	h.pump()
	if h.running == r && h.sim.skipTo(h.grant) {
		// The grant went to p at once and ends before anything else
		// happens, so p completes it here instead of parking.  The
		// queues are empty, so finishing now pumps nothing, exactly
		// as finishing after p runs on would.
		h.cpuBusy, h.running = false, nil
		h.charge(r)
		h.putReq(r)
		return
	}
	p.park()
}

// Pause stalls the host's CPU: no new work is granted until Resume,
// but queued and in-flight work is preserved — the model of a machine
// that stops scheduling (heavy GC, a debugger, a hiccup) without
// losing state.  Its NIC input queue fills and overflows naturally.
func (h *Host) Pause() { h.paused = true }

// Resume restarts a paused host's CPU.
func (h *Host) Resume() {
	h.paused = false
	if !h.down {
		h.pump()
		for _, l := range h.lanes {
			h.lanePump(l)
		}
	}
}

// Crash takes the host down: pending interrupt work (and the kernel
// halves of in-flight completions) is lost, and registered crash hooks
// run so attached devices can flush their state — the packet filter
// closes its ports, which is what forces user code to re-bind filters
// on recovery.  Parked processes are NOT destroyed: their queued CPU
// requests survive and are served after Restart, modeling processes
// that come back with the machine.
func (h *Host) Crash() {
	h.down = true
	h.epoch++
	for h.intrQ.len() > 0 {
		h.putReq(h.intrQ.pop())
	}
	for _, l := range h.lanes {
		for l.q.len() > 0 {
			h.putReq(l.q.pop())
		}
	}
	for _, fn := range h.crashHooks {
		fn()
	}
}

// Restart brings a crashed (or paused) host back up.
func (h *Host) Restart() {
	h.down = false
	h.paused = false
	h.pump()
	for _, l := range h.lanes {
		h.lanePump(l)
	}
}

// Down reports whether the host is crashed (not merely paused).
// Devices consult it to discard I/O addressed to a dead machine.
func (h *Host) Down() bool { return h.down }

// OnCrash registers fn to run (in event-loop context) whenever the
// host crashes.  Devices use it to model state lost with the machine.
func (h *Host) OnCrash(fn func()) { h.crashHooks = append(h.crashHooks, fn) }

// pump grants the CPU to the next request if it is idle.  Interrupt
// work preempts queued (not running) process work.
func (h *Host) pump() {
	if h.cpuBusy || h.paused || h.down {
		return
	}
	var r *cpuReq
	switch {
	case h.intrQ.len() > 0:
		r = h.intrQ.pop()
	case h.procQ.len() > 0:
		r = h.procQ.pop()
	default:
		return
	}

	d := r.d
	tr := h.sim.tracer
	if r.proc != nil {
		// Charge a context switch when the CPU passes to a
		// different process (§6.5.2, about 0.4 ms), or when this
		// process blocked on a wait queue since its last grant —
		// suspending and resuming is a switch pair even on an
		// otherwise idle system (§6.5.1).
		if (r.proc != h.lastOwner && h.lastOwner != nil) || r.proc.blocked {
			cs := h.sim.costs.CtxSwitch
			d += cs
			h.Counters.ContextSwitches++
			h.sim.Counters.ContextSwitches++
			h.KernelTime["ctxswitch"] += cs
			if tr != nil {
				tr.CtxSwitch(h.sim.now, h.name, r.proc.name, cs)
				tr.KernelTime(h.name, "ctxswitch", cs)
			}
		}
		r.proc.blocked = false
		h.lastOwner = r.proc
	}
	if tr != nil {
		switch {
		case r.proc != nil && r.tag == "user":
			tr.UserSlice(h.sim.now, h.name, r.proc.name, r.d)
		case r.proc != nil:
			tr.KernelSlice(h.sim.now, h.name, r.tag, r.proc.name, r.d)
		default:
			tr.KernelSlice(h.sim.now, h.name, r.tag, "", r.d)
		}
	}

	h.cpuBusy = true
	h.running = r
	h.runEpoch = h.epoch
	h.grant = h.sim.After(d, h.completeFn)
}

// complete finishes the in-flight CPU grant.  It is scheduled by pump
// through a single pre-bound callback; cpuBusy guarantees at most one
// grant is ever outstanding, so h.running is unambiguous.
func (h *Host) complete() {
	h.cpuBusy = false
	r := h.running
	h.running = nil
	// After a process grant the resumed process runs to its next park
	// before finish — its next CPU request joins the queue ahead of the
	// pump, and that order is in every golden hash.  Deferred, so a
	// process that panics leaves the CPU serving the rest of the host.
	defer h.finish(r)
	// If the host crashed while this work was in flight, the kernel
	// half is lost, but a process is still resumed so it survives the
	// crash (it will queue for CPU again and run after Restart).
	crashed := h.epoch != h.runEpoch
	if !crashed {
		h.charge(r)
	}
	if r.proc != nil {
		h.sim.runProc(r.proc)
	} else if r.fn != nil && !crashed {
		r.fn()
	}
}

// charge books a completed grant's CPU time.
func (h *Host) charge(r *cpuReq) {
	tr := h.sim.tracer
	if r.proc != nil && r.tag == "user" {
		h.UserTime += r.d
		if tr != nil {
			tr.UserTime(h.name, r.d)
		}
		return
	}
	h.KernelTime[r.tag] += r.d
	if tr != nil {
		tr.KernelTime(h.name, r.tag, r.d)
	}
}

// finish ends complete: recycle the request and grant the CPU to the
// next one.
func (h *Host) finish(r *cpuReq) {
	h.putReq(r)
	h.pump()
}

// KernelTotal sums kernel-mode CPU across categories.
func (h *Host) KernelTotal() time.Duration {
	var t time.Duration
	for _, d := range h.KernelTime {
		t += d
	}
	return t
}

// ResetAccounting zeroes the host's counters and CPU accounting — and
// any attached tracer's metrics for this host, so trace-derived
// profiles stay in exact agreement with KernelTime.  Benchmarks call
// it after warm-up.
func (h *Host) ResetAccounting() {
	h.Counters = vtime.Counters{}
	h.KernelTime = make(map[string]time.Duration)
	h.UserTime = 0
	if tr := h.sim.tracer; tr != nil {
		tr.ResetHost(h.name)
	}
}
