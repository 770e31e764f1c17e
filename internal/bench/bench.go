// Package bench regenerates every table and figure in the paper's
// evaluation (§2 figures, §3 figures, §6 tables) on the simulated
// substrate.  Each experiment is a function returning a Table whose
// rows mirror the paper's layout, annotated with the paper's published
// values so EXPERIMENTS.md can show paper-vs-measured side by side.
//
// Absolute times are virtual milliseconds from the calibrated VAX-era
// cost model (package vtime); the claims being validated are the
// *shapes*: who wins, by what factor, and where crossovers fall.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ethersim"
	"repro/internal/inet"
	"repro/internal/parsim"
	"repro/internal/pfdev"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmtp"
	"repro/internal/vtime"
)

// Tracer, when set, is attached to every experiment rig, so the whole
// benchmark suite can run under observation (cmd/pfbench -trace).
var Tracer *trace.Tracer

// Workers bounds how many simulation universes the benchmark sweeps
// run concurrently (cmd/pfbench -parallel); <= 0 selects GOMAXPROCS.
// Each sweep cell builds its own rig, so cells parallelize with
// bit-identical tables — results are collected in cell order.
var Workers int

// sweepWorkers resolves Workers for a sweep, forcing sequential
// execution when the shared Tracer is attached: rigs reuse host names,
// so concurrent traced universes would interleave their metrics.
func sweepWorkers() int {
	if Tracer != nil {
		return 1
	}
	return parsim.Workers(Workers)
}

// Table is one regenerated paper table or figure.
type Table struct {
	ID      string     `json:"id"`    // experiment id from DESIGN.md, e.g. "t6-2"
	Title   string     `json:"title"` // the paper's caption
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"` // shape commentary, paper values, caveats
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### [%s] %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// ms formats a duration as milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f mSec", float64(d)/float64(time.Millisecond))
}

// kbps formats a throughput in KB/s given bytes and elapsed time.
func kbps(bytes int, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f Kbytes/sec", rate(bytes, elapsed))
}

func rate(bytes int, elapsed time.Duration) float64 {
	return float64(bytes) / 1024 / (float64(elapsed) / float64(time.Second))
}

// vKernelCosts models the V kernel: a message-passing system with
// inexpensive processes and IPC, so its domain crossings and switches
// cost a fraction of 4.3BSD's.  Network and protocol work is
// unchanged.
func vKernelCosts() vtime.Costs {
	c := vtime.DefaultCosts()
	c.CtxSwitch /= 2
	c.Syscall /= 2
	c.Wakeup /= 2
	return c
}

// rig is a two-host network fixture: a traffic source/client host "A"
// and an instrumented receiver/server host "B".
type rig struct {
	s      *sim.Sim
	net    *ethersim.Network
	hA, hB *sim.Host
	nicA   *ethersim.NIC
	nicB   *ethersim.NIC
	devA   *pfdev.Device
	devB   *pfdev.Device
	stackA *inet.Stack
	stackB *inet.Stack
	vmtpA  *vmtp.KernelTransport
	vmtpB  *vmtp.KernelTransport
}

// rigOptions selects which kernel subsystems each host gets.
type rigOptions struct {
	link       ethersim.LinkType
	costs      vtime.Costs
	inet       bool // kernel IP/UDP/TCP stacks
	kernelVMTP bool // kernel VMTP engines
	pf         pfdev.Options
	kernB      pfdev.KernelProtocol // offered host B's frames after its stacks
}

func newRig(o rigOptions) *rig {
	if o.costs == (vtime.Costs{}) {
		o.costs = vtime.DefaultCosts()
	}
	s := sim.New(o.costs)
	if Tracer != nil {
		s.SetTracer(Tracer)
	}
	net := ethersim.New(s, o.link)
	hA, hB := s.NewHost("A"), s.NewHost("B")
	r := &rig{
		s: s, net: net, hA: hA, hB: hB,
		nicA: net.Attach(hA, 1),
		nicB: net.Attach(hB, 2),
	}
	var kernA, kernB []pfdev.KernelProtocol
	if o.inet {
		r.stackA = inet.NewStack(r.nicA, 0x0A000001)
		r.stackB = inet.NewStack(r.nicB, 0x0A000002)
		r.stackA.AddARP(r.stackB.Addr(), r.nicB.Addr())
		r.stackB.AddARP(r.stackA.Addr(), r.nicA.Addr())
		kernA = append(kernA, r.stackA)
		kernB = append(kernB, r.stackB)
	}
	if o.kernelVMTP {
		r.vmtpA = vmtp.AttachKernel(r.nicA, vmtp.DefaultKernelConfig())
		r.vmtpB = vmtp.AttachKernel(r.nicB, vmtp.DefaultKernelConfig())
		kernA = append(kernA, r.vmtpA)
		kernB = append(kernB, r.vmtpB)
	}
	if o.kernB != nil {
		kernB = append(kernB, o.kernB)
	}
	r.devA = pfdev.Attach(r.nicA, pfdev.Chain(kernA...), o.pf)
	r.devB = pfdev.Attach(r.nicB, pfdev.Chain(kernB...), o.pf)
	return r
}

// An Experiment pairs a table id with the function that regenerates
// it, so callers can run a single experiment without paying for (or —
// when tracing, since rigs reuse host names — polluting the metrics
// of) all the others.
type Experiment struct {
	ID  string
	Run func() Table
}

// Experiments lists every experiment in DESIGN.md order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2-1/2-2", Fig21DemuxCounts},
		{"fig2-3", Fig23DomainCrossings},
		{"fig3-4/3-5", Fig34Batching},
		{"t6-1", Table61Send},
		{"t6-2", Table62VMTPSmall},
		{"t6-3", Table63VMTPBulk},
		{"t6-4", Table64Batching},
		{"t6-5", Table65UserDemux},
		{"t6-6", Table66Stream},
		{"t6-7", Table67Telnet},
		{"t6-8", Table68RecvCost},
		{"t6-9", Table69RecvBatch},
		{"t6-10", Table610FilterLen},
		{"s6-1", Sec61Profile},
		{"s6-1-fit", Sec61LinearFit},
		{"s6-5-break", Sec65BreakEven},
		{"abl-eval", AblationEvalModes},
		{"abl-sc", AblationShortCircuit},
		{"abl-prio", AblationPriorityOrder},
		{"abl-nit", AblationNIT},
		{"abl-wbatch", AblationWriteBatch},
		{"abl-gw", AblationGateway},
		{"chaos", ChaosGoodput},
		{"exp-shm", ExpShm},
		{"exp-coalesce", ExpCoalesce},
		{"exp-scale", ExpScale},
		{"exp-provenance", ExpProvenance},
		{"exp-storm", ExpStorm},
		{"exp-churn", ExpChurn},
		{"exp-mq", ExpMq},
	}
}

// All runs every experiment in DESIGN.md order.  Experiments are
// independent (each builds its own rigs) and run across the parsim
// pool; tables come back in registry order, so the suite's output is
// byte-identical to a sequential run.
func All() []Table {
	exps := Experiments()
	return parsim.Map(len(exps), sweepWorkers(), func(i int) Table {
		return exps[i].Run()
	})
}
