package filter

// Fuel-limited evaluation: the runtime half of the defense §7 sketches
// against user predicates monopolizing the kernel.  Validate's
// WorstInstrs bound is the static half; these entry points enforce a
// hard budget of executed instruction words at run time, so even a
// caller that distrusts the static bound (a fuzzer, the adversarial
// workload searcher) can prove no evaluation exceeds its fuel.
//
// The budget discipline differs by evaluation strategy, mirroring
// where each strategy can afford a check:
//
//   - RunFuel (checked interpreter): a true per-instruction fuel
//     counter; evaluation stops mid-program with ErrFuel.
//   - Table.MatchFuel: admission control only — a budget below the
//     static worst case refuses to run at all.  Threading a counter
//     through the tree walk would tax every step of the fastest path
//     to support a case the governor handles by not running the
//     filter.  The device's governor prices flat-IR filters the same
//     way, admitting each against its static worst case before it runs.
//
// In every mode, an evaluation that runs to a verdict is bit-identical
// to its unfueled counterpart: fuel never changes an accept/reject
// decision, it only refuses or truncates evaluations that would
// overrun the budget.

import "errors"

// ErrFuel reports that an evaluation hit its executed-instruction
// budget (or that the budget did not cover the static worst case of a
// strategy that cannot meter instructions individually).
var ErrFuel = errors.New("filter: instruction budget exhausted")

// RunFuel applies a base-language program with full checking and a
// hard budget of fuel executed instruction words.  If the program
// would execute more, evaluation stops with Err wrapping ErrFuel, the
// packet is rejected, and Result.Instrs == fuel.
func RunFuel(p Program, pkt []byte, fuel int) Result {
	return run(p, pkt, Env{}, false, fuel)
}

// WorstInstrs bounds the work units (tree edges plus linear-fallback
// instruction words) of one Match call: every decision-tree node that
// tests a packet word, plus the static worst case of each fallback
// program.  No packet can make MatchStats report more total work.
func (t *Table) WorstInstrs() int {
	worst := countTestNodes(t.root)
	for _, l := range t.linear {
		worst += l.fp.Info().WorstInstrs
	}
	return worst
}

func countTestNodes(n *tnode) int {
	if n == nil {
		return 0
	}
	total := 0
	if n.word >= 0 {
		total = 1
	}
	n.branches.each(func(b *tnode) { total += countTestNodes(b) })
	return total + countTestNodes(n.wildcard)
}

// MaxInstrsProgram returns a valid base-language program of the
// maximum permitted length whose every instruction word executes on
// every packet of at least one whole word: one PUSHWORD followed by a
// chain of PUSHWORD|OR steps, which no short-circuit can cut and no
// constant propagation can cap.  It is the canonical hostile filter —
// the most kernel time a single legal program can charge per packet —
// and the starting point for the adversarial workload searcher.
func MaxInstrsProgram() Program {
	p := make(Program, 0, MaxProgramLen)
	p = append(p, MkInstr(PushWord(0), NOP))
	for len(p) < MaxProgramLen {
		p = append(p, MkInstr(PushWord(0), OR))
	}
	return p
}

// MatchFuel runs MatchStats when fuel covers the table's static worst
// case, and refuses with ErrFuel otherwise.  The merged table is
// admitted whole: a walk cannot be abandoned halfway without losing
// the exact linear-equivalence property.
func (t *Table) MatchFuel(pkt []byte, fuel int) (MatchResult, error) {
	if fuel < t.WorstInstrs() {
		return MatchResult{}, ErrFuel
	}
	return t.MatchStats(pkt), nil
}
