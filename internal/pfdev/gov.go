package pfdev

// Resource governance: the defensive layer that keeps a hostile (or
// merely buggy) port from monopolizing the kernel.  §6.1 measures 41%
// of packet-filter receive time going to predicate evaluation, and the
// language's only built-in defense is the program-length cap — a port
// binding a maximum-length filter still charges the kernel
// MaxProgramLen instruction units for every packet on the wire, paid
// by every other user of the interface.  The governor closes that hole
// with three cooperating mechanisms, all strictly opt-in (the zero
// Options leave every path byte-identical).  Their state types,
// PortGov and Admission, take the caller's clock reading, so this
// device runs them in virtual time and package live runs the same code
// on wall time:
//
//   - Per-port CPU token buckets.  Each port accrues instruction units
//     at GovConfig.Rate up to Burst; a filter evaluation is admitted
//     only when the bucket covers the program's static worst case
//     (filter.Info.WorstInstrs, scaled per evaluation mode) and is
//     charged its actual cost afterwards.  Well-behaved filters never
//     notice; a MaxInstrsProgram drains its bucket within a few
//     packets.
//
//   - Quarantine.  An over-budget port's filter is skipped entirely —
//     no FilterApply setup, no instruction charges — for a penalty
//     window that doubles on prompt re-offense up to QuarantineMax and
//     resets to QuarantineBase after QuarantineCool of good standing.
//     A packet that then matches no port is accounted DropQuota, not
//     DropNoMatch: the governor, not the filter set, decided its fate.
//
//   - Admission control.  When the kernel-wide backlog (queued packets
//     plus matched frames awaiting their "pf" charge) crosses
//     AdmissionHigh, new frames are shed at demux entry — before any
//     filter cost is paid — as DropAdmission, until the backlog drains
//     to AdmissionLow (classic high/low watermark hysteresis, so the
//     controller does not flap at the boundary).
//
// Every governed drop is a typed span termination, so the PR-6
// conservation property (created == delivered + drops + live) holds
// exactly with governance enabled.

import (
	"time"

	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/trace"
)

// GovConfig configures the device's resource governor.  The zero value
// disables it entirely.
type GovConfig struct {
	// Enabled turns the governor on.  All other fields are defaulted
	// from DefaultGovConfig when left zero.
	Enabled bool
	// Rate is the token refill rate in instruction units per virtual
	// second.  One unit is one checked-interpreter step (the same unit
	// Binding.Eval charges, so the faster §7 strategies cost
	// proportionally less fuel too).
	Rate float64
	// Burst is the bucket capacity in instruction units.
	Burst int
	// QuarantineBase is the first penalty window; QuarantineMax caps
	// the doubling backoff; QuarantineCool is how long a port must
	// stay out of trouble before its penalty resets to the base.
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	QuarantineCool time.Duration
	// AdmissionHigh and AdmissionLow are the backlog watermarks (in
	// packets: queued on ports plus pending delivery) at which input
	// shedding starts and stops.
	AdmissionHigh int
	AdmissionLow  int
}

// DefaultGovConfig returns the enabled governor with its default
// calibration.  The numbers are sized against the virtual cost model
// (FilterInstr = 28µs, so one virtual CPU sustains ~35.7k instruction
// units per second): Rate lets a port use a generous minority share of
// the filter budget, Burst keeps an over-budget port's post-quarantine
// relapse to a couple of evaluations, and the watermarks sit below the
// point where the pending queue's latency would dwarf per-packet cost.
func DefaultGovConfig() GovConfig {
	return GovConfig{
		Enabled:        true,
		Rate:           20000,
		Burst:          256,
		QuarantineBase: 50 * time.Millisecond,
		QuarantineMax:  time.Second,
		QuarantineCool: 400 * time.Millisecond,
		AdmissionHigh:  192,
		AdmissionLow:   64,
	}
}

// WithDefaults returns the config with zero fields filled from the
// default calibration; a disabled config is returned unchanged.  The
// live-mode device (package live) runs the same governor on wall time
// and shares this calibration.
func (g GovConfig) WithDefaults() GovConfig {
	if !g.Enabled {
		return g
	}
	def := DefaultGovConfig()
	if g.Rate <= 0 {
		g.Rate = def.Rate
	}
	if g.Burst <= 0 {
		g.Burst = def.Burst
	}
	if g.QuarantineBase <= 0 {
		g.QuarantineBase = def.QuarantineBase
	}
	if g.QuarantineMax < g.QuarantineBase {
		g.QuarantineMax = def.QuarantineMax
	}
	if g.QuarantineCool <= 0 {
		g.QuarantineCool = def.QuarantineCool
	}
	if g.AdmissionHigh <= 0 {
		g.AdmissionHigh = def.AdmissionHigh
	}
	if g.AdmissionLow <= 0 || g.AdmissionLow >= g.AdmissionHigh {
		g.AdmissionLow = g.AdmissionHigh / 3
	}
	return g
}

// govBoundFor computes a filter's pre-admission price: its static
// worst-case cost in the same scaled units Binding.Eval charges for the
// given mode.  A program the checked interpreter would accept despite
// failing validation (EvalChecked binds anything) is priced at its
// full length, a sound upper bound on executed words.
func govBoundFor(mode EvalMode, p filter.Program, opt filter.ValidateOptions) int {
	info, err := filter.Validate(p, opt)
	if err != nil {
		return len(p)
	}
	switch mode {
	case EvalFast:
		return (info.WorstInstrs*3 + 4) / 5
	case EvalCompiled:
		return (info.Instrs + 2) / 3
	default: // EvalChecked, EvalTable
		return info.WorstInstrs
	}
}

// PortGov is one port's governor state: the CPU token bucket, in
// instruction units, refilled lazily at govRefill, and the
// doubling-backoff quarantine window.  govBound is the bound filter's
// scaled worst-case price, checked against the bucket before each
// evaluation.  The type is clock-agnostic — every call takes the
// caller's now — so the simulated device runs it on virtual time and
// package live runs the same code on wall time.
type PortGov struct {
	govTokens   float64
	govRefill   time.Duration
	govBound    int
	quarUntil   time.Duration
	quarPenalty time.Duration
	fuelSpent   uint64 // instruction units charged against the bucket
	quarantines uint64 // times the port entered quarantine
	quarSkips   uint64 // filter evaluations skipped while quarantined
}

// govRefillNow lazily accrues tokens for the elapsed time.
func (g *PortGov) govRefillNow(now time.Duration, cfg *GovConfig) {
	if now > g.govRefill {
		g.govTokens += cfg.Rate * (now - g.govRefill).Seconds()
		if b := float64(cfg.Burst); g.govTokens > b {
			g.govTokens = b
		}
		g.govRefill = now
	}
}

// Admit decides whether this port's filter may run against the current
// frame.  A port in its penalty window, or whose bucket cannot cover
// the filter's worst case (which quarantines it), is skipped.
func (g *PortGov) Admit(now time.Duration, cfg *GovConfig) bool {
	g.govRefillNow(now, cfg)
	if now < g.quarUntil {
		g.quarSkips++
		return false
	}
	if g.govTokens < float64(g.govBound) {
		g.govQuarantine(now, cfg)
		g.quarSkips++
		return false
	}
	return true
}

// govQuarantine starts (or extends) the port's penalty window: prompt
// re-offense after the previous window doubles the penalty, good
// standing for QuarantineCool earns a fresh start at the base.
func (g *PortGov) govQuarantine(now time.Duration, cfg *GovConfig) {
	if g.quarPenalty == 0 || now-g.quarUntil > cfg.QuarantineCool {
		g.quarPenalty = cfg.QuarantineBase
	} else {
		g.quarPenalty *= 2
		if g.quarPenalty > cfg.QuarantineMax {
			g.quarPenalty = cfg.QuarantineMax
		}
	}
	g.quarUntil = now + g.quarPenalty
	g.quarantines++
}

// Admission is the overload controller's state: high/low watermark
// hysteresis over a backlog each device measures its own way.
type Admission struct {
	shedding       bool
	admissionSheds uint64
}

// Admit updates the shed/accept hysteresis for the current backlog and
// reports whether a newly arrived frame may enter the demultiplexer;
// a refused frame is counted as shed.
func (a *Admission) Admit(backlog int, cfg *GovConfig) bool {
	if a.shedding {
		if backlog <= cfg.AdmissionLow {
			a.shedding = false
		}
	} else if backlog >= cfg.AdmissionHigh {
		a.shedding = true
	}
	if a.shedding {
		a.admissionSheds++
	}
	return !a.shedding
}

// backlog is the admission controller's load signal: packets queued on
// ports plus matched frames still awaiting their "pf" kernel charge.
// Both terms are maintained O(1) on the hot path.
func (d *Device) backlog() int {
	n := d.queuedTotal
	for _, rx := range d.rx {
		n += len(rx.pend) - rx.pendHead
	}
	return n
}

// shedFrame accounts one frame refused at demux entry.
func (d *Device) shedFrame(span uint64) {
	d.KernelDrops++
	d.host.Counters.PacketsDropped++
	d.host.Sim().Counters.PacketsDropped++
	tr := d.host.Sim().Tracer()
	now := d.host.Clock().Now()
	if tr != nil {
		tr.Drop(now, d.host.Name(), "admission")
	}
	tr.SpanDrop(span, now, d.host.Name(), trace.DropAdmission)
}

// GovStats is the governor's device-wide report: the admission
// controller's state and the port buckets' aggregate activity.
type GovStats struct {
	Shedding        bool   `json:"shedding"`
	Backlog         int    `json:"backlog"`
	AdmissionSheds  uint64 `json:"admission_sheds"`
	Quarantines     uint64 `json:"quarantines"`
	QuarantineSkips uint64 `json:"quarantine_skips"`
	FuelSpent       uint64 `json:"fuel_spent"`
}

// GovStats reports the governor's statistics.  Process context;
// charges an ioctl.  Ports already closed no longer contribute.
func (d *Device) GovStats(p *sim.Proc) GovStats {
	p.Syscall("pf")
	return d.GovReport(&d.Admission, d.backlog())
}

// GovReport is the governor's device-wide report: adm's state at the
// given backlog, and the buckets of the indexed ports summed.
func (x *TableIndex[P]) GovReport(adm *Admission, backlog int) GovStats {
	gs := GovStats{
		Shedding:       adm.shedding,
		Backlog:        backlog,
		AdmissionSheds: adm.admissionSheds,
	}
	for _, b := range x.binds {
		gs.Quarantines += b.quarantines
		gs.QuarantineSkips += b.quarSkips
		gs.FuelSpent += b.fuelSpent
	}
	return gs
}
