// Package filter implements the CMU/Stanford packet-filter language
// described in §3.1 of "The Packet Filter: An Efficient Mechanism for
// User-level Network Code" (Mogul, Rashid & Accetta, SOSP 1987), along
// with every evaluation strategy the paper describes or proposes:
//
//   - a fully checked interpreter (§4, the production implementation),
//   - compilation to flat register code (setir.go), which serves both
//     of §7's per-filter proposals at once: the program is validated
//     once, so the inner loop carries no validity, stack or bounds
//     checks ("all these tests can be performed ahead of time"), and
//     all decoding is resolved ahead of time, the analogue of
//     "compiling filters into machine code",
//   - a decision-table evaluator that merges a whole set of active
//     filters (§7: "compile the set of active filters into a decision
//     table, which should provide the best possible performance"),
//   - the (field-offset, expected-value) pair-predicate alternative
//     that §3.1 considers and rejects, kept here as a baseline,
//   - the §7 language extensions: an indirect push operator,
//     arithmetic operators, and byte-sized field access.
//
// A filter is a program over a small stack machine.  Each 16-bit
// instruction word has two fields: a stack action, which may push a
// word of the received packet or a constant, and a binary operator,
// which pops the top two words and pushes a result.  There are no
// branches.  A packet is accepted if, when the program ends (or a
// short-circuit operator fires), the top of stack is non-zero.
//
// Packets are viewed as arrays of 16-bit words in network byte order:
// word n of a packet is bytes 2n and 2n+1, big-endian, counted from
// the start of the data-link header.
package filter

import "fmt"

// Word is one 16-bit packet-filter instruction word (or literal
// operand).  The layout follows the original enet.h: the low OpBits
// bits hold the binary operator, the remaining high bits hold the
// stack action.  (The paper's figure 3-6 draws the operator field
// first; the split of 10 bits of action and 6 bits of operator is what
// lets PUSHWORD+n address packets hundreds of words long.)
type Word uint16

// Field widths of an instruction word.
const (
	OpBits     = 6  // low bits: binary operator
	ActionBits = 10 // high bits: stack action
	opMask     = 1<<OpBits - 1
)

// Op is a binary operator.  All operators except NOP pop the top two
// stack words (T1 = top, T2 = next) and push one result.  For the
// logical operators a value is TRUE iff it is non-zero.
type Op uint16

// Binary operators (§3.1, figure 3-6).  NOP is zero so that a plain
// push such as PushWord(3) encodes with an all-zero operator field.
const (
	NOP Op = iota // no effect on the stack

	EQ  // R := TRUE if T2 == T1, else FALSE
	NEQ // R := TRUE if T2 != T1
	LT  // R := TRUE if T2 <  T1
	LE  // R := TRUE if T2 <= T1
	GT  // R := TRUE if T2 >  T1
	GE  // R := TRUE if T2 >= T1
	AND // R := T2 AND T1 (bitwise)
	OR  // R := T2 OR T1
	XOR // R := T2 XOR T1

	// Short-circuit operators.  Each evaluates R := (T1 == T2) and
	// pushes R, but first may terminate the whole program:
	//
	//	COR    returns TRUE  immediately if R is TRUE
	//	CAND   returns FALSE immediately if R is FALSE
	//	CNOR   returns FALSE immediately if R is TRUE
	//	CNAND  returns TRUE  immediately if R is FALSE
	//
	// They were added "after an analysis showed that they would
	// reduce the cost of interpreting filter predicates" (§3.1).
	COR
	CAND
	CNOR
	CNAND

	// Extended arithmetic operators (§7: "arithmetic operators to
	// assist in addressing-unit conversions").  Only valid in
	// programs validated with Extensions enabled.
	ADD // R := T2 + T1 (mod 2^16)
	SUB // R := T2 - T1 (mod 2^16)
	MUL // R := T2 * T1 (mod 2^16)
	LSH // R := T2 << (T1 mod 16)
	RSH // R := T2 >> (T1 mod 16)

	numOps // sentinel; not a real operator
)

// Action is a stack action.  Actions other than NOPUSH push exactly
// one word; the action executes before the instruction's operator.
type Action uint16

// Stack actions (§3.1, figure 3-6).  PushWord(n) composes the
// PUSHWORD base with a word index; indices therefore occupy the
// remaining action-field space.
const (
	NOPUSH   Action = 0 // nothing is pushed
	PUSHLIT  Action = 1 // the following program word is pushed
	PUSHZERO Action = 2 // constant 0
	PUSHONE  Action = 3 // constant 1
	PUSHFFFF Action = 4 // constant 0xFFFF
	PUSHFF00 Action = 5 // constant 0xFF00
	PUSH00FF Action = 6 // constant 0x00FF

	// Extended actions (§7).  Only valid with Extensions enabled.

	// PUSHIND pops the top of stack and pushes the packet word it
	// indexes; this is §7's "indirect push" operator, needed for
	// protocols with variable-format headers (e.g. IP options).
	PUSHIND Action = 8
	// PUSHHDRLEN pushes the data-link header length in 16-bit
	// words, letting one filter work across link types.
	PUSHHDRLEN Action = 9
	// PUSHPKTLEN pushes the total packet length in bytes.
	PUSHPKTLEN Action = 10

	// PUSHBYTE pushes one packet byte, zero-extended to 16 bits
	// (§7: "direct support for other field sizes").  The byte index
	// is taken from the program word following the instruction,
	// exactly as PUSHLIT takes its literal; indexed byte access
	// does not fit in the action field, which PUSHWORD+n occupies.
	PUSHBYTE Action = 12

	// PUSHWORD pushes the nth 16-bit word of the packet; compose
	// with PushWord(n).  It is last because all larger action
	// values encode PUSHWORD+index.
	PUSHWORD Action = 16
)

// MaxWordIndex is the largest packet word index expressible by
// PUSHWORD+n within the 10-bit action field.  An Ethernet maximum
// frame (1514 bytes, 757 words) fits comfortably.
const MaxWordIndex = (1 << ActionBits) - 1 - int(PUSHWORD)

// MkInstr assembles an instruction word from a stack action and a
// binary operator.
func MkInstr(a Action, op Op) Word {
	return Word(a)<<OpBits | Word(op)&opMask
}

// PushWord returns the stack action that pushes packet word n.
// It panics if n is out of range; use the builder or validator for
// data-driven construction.
func PushWord(n int) Action {
	if n < 0 || n > MaxWordIndex {
		panic(fmt.Sprintf("filter: PUSHWORD index %d out of range [0,%d]", n, MaxWordIndex))
	}
	return PUSHWORD + Action(n)
}

// Action extracts the stack action field of an instruction word.
func (w Word) Action() Action { return Action(w >> OpBits) }

// Op extracts the binary operator field of an instruction word.
func (w Word) Op() Op { return Op(w & opMask) }

// IsShortCircuit reports whether op may terminate the program early.
func (op Op) IsShortCircuit() bool { return op >= COR && op <= CNAND }

// IsComparison reports whether op is one of the six ordering/equality
// comparisons.
func (op Op) IsComparison() bool { return op >= EQ && op <= GE }

// IsExtended reports whether op requires Extensions to be enabled.
func (op Op) IsExtended() bool { return op >= ADD && op < numOps }

// Valid reports whether op is a defined operator under the given
// extension setting.
func (op Op) Valid(extensions bool) bool {
	if op >= numOps {
		return false
	}
	return extensions || !op.IsExtended()
}

// IsExtended reports whether the action requires Extensions.
func (a Action) IsExtended() bool {
	return a == PUSHIND || a == PUSHHDRLEN || a == PUSHPKTLEN || a == PUSHBYTE
}

// HasOperand reports whether an instruction with this action consumes
// the following program word as an operand.
func (a Action) HasOperand() bool { return a == PUSHLIT || a == PUSHBYTE }

// Valid reports whether a is a defined stack action under the given
// extension setting.
func (a Action) Valid(extensions bool) bool {
	switch {
	case a <= PUSH00FF:
		return true
	case a >= PUSHWORD:
		return true // PUSHWORD+n for any representable n
	case a.IsExtended():
		return extensions
	default:
		return false
	}
}

var opNames = [...]string{
	NOP: "NOP", EQ: "EQ", NEQ: "NEQ", LT: "LT", LE: "LE", GT: "GT", GE: "GE",
	AND: "AND", OR: "OR", XOR: "XOR",
	COR: "COR", CAND: "CAND", CNOR: "CNOR", CNAND: "CNAND",
	ADD: "ADD", SUB: "SUB", MUL: "MUL", LSH: "LSH", RSH: "RSH",
}

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("OP(%d)", uint16(op))
}

// String returns the assembler mnemonic for a, using the
// "PUSHWORD+n" / "PUSHBYTE+n" forms for indexed pushes.
func (a Action) String() string {
	switch {
	case a == NOPUSH:
		return "NOPUSH"
	case a == PUSHLIT:
		return "PUSHLIT"
	case a == PUSHZERO:
		return "PUSHZERO"
	case a == PUSHONE:
		return "PUSHONE"
	case a == PUSHFFFF:
		return "PUSHFFFF"
	case a == PUSHFF00:
		return "PUSHFF00"
	case a == PUSH00FF:
		return "PUSH00FF"
	case a == PUSHIND:
		return "PUSHIND"
	case a == PUSHHDRLEN:
		return "PUSHHDRLEN"
	case a == PUSHPKTLEN:
		return "PUSHPKTLEN"
	case a == PUSHBYTE:
		return "PUSHBYTE"
	case a >= PUSHWORD:
		return fmt.Sprintf("PUSHWORD+%d", a-PUSHWORD)
	default:
		return fmt.Sprintf("ACTION(%d)", uint16(a))
	}
}

// String renders the instruction word in the style of the paper's
// listings, e.g. "PUSHWORD+1" or "PUSHLIT|EQ".
func (w Word) String() string {
	a, op := w.Action(), w.Op()
	if op == NOP && a != NOPUSH {
		return a.String()
	}
	if a == NOPUSH {
		return op.String()
	}
	return a.String() + "|" + op.String()
}
