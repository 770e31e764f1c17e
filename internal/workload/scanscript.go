package workload

// Scan scripts: one seeded sequence of port churn and traffic that the
// simulated and the live device can both replay, so their table-mode
// scan (which visits only the ports the decision table names) can be
// held against the linear scan and against the full port walk on a
// filter population built to stress it — tree-resident conjunctions,
// linear fallbacks, filters that match nothing, copy-all monitors and
// priority ties, with ports rebound, closed and reopened between
// frames.

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// ScanOpKind names one step of a scan script.
type ScanOpKind int

const (
	// ScanOpen opens the port for Slot, sets CopyAll and binds Filter.
	ScanOpen ScanOpKind = iota
	// ScanSetFilter rebinds Slot's port to Filter (CopyAll unchanged).
	ScanSetFilter
	// ScanClose closes Slot's port; a later ScanOpen may reuse Slot.
	ScanClose
	// ScanFrame delivers Frame (3Mb Ethernet Pup) to the device.
	ScanFrame
)

// ScanOp is one step of a scan script.
type ScanOp struct {
	Kind    ScanOpKind
	Slot    int
	Filter  filter.Filter
	CopyAll bool
	Frame   []byte
}

// scanSeqOffset is the frame offset of the big-endian 16-bit sequence
// number ScanScript stamps into every frame, in a Pup word no script
// filter examines.
const scanSeqOffset = 4 + 18

// ScanSeq returns the sequence number ScanScript stamped into frame.
func ScanSeq(frame []byte) int {
	return int(frame[scanSeqOffset])<<8 | int(frame[scanSeqOffset+1])
}

// ScanScript draws a deterministic script: ports opens, then frames
// frame deliveries with a churn step (rebind, or close and reopen)
// ahead of about every fourth.  Destination sockets come from a range
// half the port count wide, so several ports tie on most sockets, and
// a margin around it, so some frames match only the monitors; one
// frame in eight is not Pup at all and matches nothing.
func ScanScript(seed int64, ports, frames int) []ScanOp {
	rng := rand.New(rand.NewSource(seed))
	const base = 0x100
	span := ports/2 + 1
	sock := func() uint16 { return uint16(base + rng.Intn(span)) }
	spec := func(kind ScanOpKind, slot int) ScanOp {
		op := ScanOp{Kind: kind, Slot: slot, CopyAll: rng.Intn(3) == 0}
		prio := uint8(1 + rng.Intn(3))
		var prog filter.Program
		switch rng.Intn(20) {
		default: // extractable conjunction: resident in the tree
			prog = filter.DstSocketFilter(prio, uint32(sock())).Program
		case 0, 1: // two-socket OR: linear fallback
			prog = filter.NewBuilder().WordEQ(8, sock()).WordEQ(8, sock()).Or().MustProgram()
		case 2: // constant false: linear fallback that never accepts
			prog = filter.NewBuilder().RejectAll().MustProgram()
		case 3: // w==a AND w==a+1: extractable but contradictory, inert
			s := sock()
			prog = filter.NewBuilder().CANDWordEQ(8, s).WordEQ(8, s+1).MustProgram()
		case 4: // stack underflow on the first word: invalid, inert
			prog = filter.Program{filter.MkInstr(filter.NOPUSH, filter.AND)}
		case 5: // every Pup frame: a copy-all monitor at any priority,
			// or now and then a catch-all port below everything else
			prog = filter.NewBuilder().WordEQ(1, filter.PupEtherType).MustProgram()
			prio = uint8(rng.Intn(5))
			if op.CopyAll = rng.Intn(8) != 0; !op.CopyAll {
				prio = 0
			}
		}
		op.Filter = filter.Filter{Priority: prio, Program: prog}
		return op
	}

	var script []ScanOp
	for slot := 0; slot < ports; slot++ {
		script = append(script, spec(ScanOpen, slot))
	}
	for seq := 0; seq < frames; seq++ {
		if slot := rng.Intn(ports); rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 {
				script = append(script, spec(ScanSetFilter, slot))
			} else {
				script = append(script, ScanOp{Kind: ScanClose, Slot: slot}, spec(ScanOpen, slot))
			}
		}
		payload := make([]byte, 22)
		payload[3] = 1 // Pup type
		s, etherType := base-2+rng.Intn(span+4), ethersim.EtherTypePup3Mb
		if rng.Intn(8) == 0 {
			s, etherType = 0, etherType+1 // not Pup, socket 0: nothing accepts it
		}
		payload[12], payload[13] = byte(s>>8), byte(s)
		frame := ethersim.Ether3Mb.Encode(2, 1, etherType, payload)
		frame[scanSeqOffset], frame[scanSeqOffset+1] = byte(seq>>8), byte(seq)
		script = append(script, ScanOp{Kind: ScanFrame, Frame: frame})
	}
	return script
}

// ScanPortLog is what one script slot's port did up to its close (or
// the script's end): its counters and the sequence numbers of the
// frames left on its queue, in queue order.
type ScanPortLog struct {
	ID                       int
	Matched, Instrs, Dropped uint64
	Seqs                     []int
}

// ScanEval is one FilterEval trace record, minus its timestamp.
type ScanEval struct {
	Port, Instrs int
	Accept       bool
}

// ScanEvals extracts the FilterEval stream from a recorded trace.
func ScanEvals(events []trace.Event) []ScanEval {
	var evals []ScanEval
	for _, e := range events {
		if e.Kind == trace.KindFilterEval {
			evals = append(evals, ScanEval{e.Port, int(e.Value), e.Aux == 1})
		}
	}
	return evals
}

// ScanOutcome is everything a device replaying a scan script is held
// to: per-port logs in retirement order, kernel drops, the FilterEval
// stream and (simulated device only) the host's cost counters.  Visits
// is the device's scan visit count, compared only for magnitude.
type ScanOutcome struct {
	Ports       []ScanPortLog
	KernelDrops uint64
	Evals       []ScanEval
	Counters    vtime.Counters
	Visits      uint64
}

// verdicts strips the cost accounting, leaving what every evaluation
// strategy must agree on.
func (o ScanOutcome) verdicts() ScanOutcome {
	v := ScanOutcome{KernelDrops: o.KernelDrops}
	for _, p := range o.Ports {
		p.Instrs = 0
		v.Ports = append(v.Ports, p)
	}
	return v
}

// CheckScanIndex holds the scan index (table mode, governor off)
// against its two oracles and returns what disagrees.  The linear scan
// (EvalChecked) is the verdict oracle: matches, delivered sequences,
// queue drops and kernel drops must be equal.  The full walk (table
// mode under a governor too generous ever to deny, which still visits
// every port) is the accounting oracle: on top of the verdicts, per-port
// instruction counts, the FilterEval stream and the cost counters must
// be equal — the linear scan charges interpreter steps where the table
// charges tree edges, so it cannot stand in for those.  A script that
// delivered nothing, dropped nothing or ran no fallback, or a full walk
// that did not visit far more ports than the index, is also reported.
func CheckScanIndex(linear, walk, index ScanOutcome) []string {
	var bad []string
	if !reflect.DeepEqual(index.verdicts(), linear.verdicts()) {
		bad = append(bad, "scan-index verdicts differ from the linear scan's")
	}
	indexVisits, walkVisits := index.Visits, walk.Visits
	index.Visits, walk.Visits = 0, 0
	if !reflect.DeepEqual(index, walk) {
		bad = append(bad, "scan-index accounting, FilterEval stream or cost counters differ from the full walk's")
	}
	delivered, rejects := 0, 0
	for _, p := range index.Ports {
		delivered += len(p.Seqs)
	}
	for _, e := range index.Evals {
		if !e.Accept {
			rejects++
		}
	}
	if delivered == 0 || index.KernelDrops == 0 || rejects == 0 {
		bad = append(bad, fmt.Sprintf("vacuous script: %d delivered, %d kernel drops, %d rejecting fallback runs",
			delivered, index.KernelDrops, rejects))
	}
	if walkVisits < 2*indexVisits {
		bad = append(bad, fmt.Sprintf("governed scan reached %d ports against the index's %d; it should still walk them all",
			walkVisits, indexVisits))
	}
	return bad
}
