package filter

import "fmt"

// Env supplies the per-packet context needed by the extended stack
// actions.  The zero Env is correct for the base language.
type Env struct {
	// HeaderWords is the data-link header length in 16-bit words
	// (2 on the 3 Mb experimental Ethernet, 7 on the 10 Mb
	// Ethernet), pushed by PUSHHDRLEN.
	HeaderWords int
}

// Result reports the outcome of applying one filter program to one
// packet.
type Result struct {
	// Accept is the predicate value: true if the packet should be
	// delivered to this filter's port.
	Accept bool
	// Instrs is the number of instruction words actually executed,
	// which short-circuit operators make less than len(program).
	// The simulator charges virtual CPU time per executed word.
	Instrs int
	// Err is non-nil if evaluation stopped on a malformed
	// instruction, stack misuse or out-of-range packet access; the
	// packet is rejected in that case, matching the original
	// driver ("or an error is detected, it returns").
	Err error
}

// Run applies a base-language program to a packet with full
// per-instruction checking, exactly as the production interpreter of
// §4 does: "it must be carefully coded since its inner loop is quite
// busy.  It simply iterates through the 'instruction words' of a
// filter (there are no branch instructions), evaluating the filter
// predicate using a small stack."
func Run(p Program, pkt []byte) Result {
	return run(p, pkt, Env{}, false, len(p))
}

// RunExt is Run with the §7 extended instructions permitted.
func RunExt(p Program, pkt []byte, env Env) Result {
	return run(p, pkt, env, true, len(p))
}

// run interprets p with full checking and a hard budget of fuel
// executed instruction words.  The plain entry points pass len(p),
// which no execution can exceed, so the budget check never fires for
// them.
func run(p Program, pkt []byte, env Env, ext bool, fuel int) Result {
	if len(p) == 0 {
		// The empty filter accepts everything (table 6-10's
		// zero-instruction baseline).
		return Result{Accept: true}
	}
	var stack [StackDepth]uint16
	sp := 0 // number of words on the stack
	res := Result{}

	fail := func(pc int, err error) Result {
		res.Err = fmt.Errorf("word %d: %w", pc, err)
		res.Accept = false
		return res
	}

	for pc := 0; pc < len(p); pc++ {
		w := p[pc]
		a, op := w.Action(), w.Op()
		if res.Instrs >= fuel {
			res.Err = fmt.Errorf("word %d: %w", pc, ErrFuel)
			return res
		}
		res.Instrs++

		// Stack action first (figure 3-6).
		var push uint16
		doPush := true
		// A packet-word push is about half of every socket filter, so it
		// is tested first; the other actions are a dense set of
		// constants, dispatched in one indexed jump.
		if a >= PUSHWORD {
			v, ok := PacketWord(pkt, int(a-PUSHWORD))
			if !ok {
				return fail(pc, ErrWordIndex)
			}
			push = v
		} else {
			switch a {
			case NOPUSH:
				doPush = false
			case PUSHLIT:
				pc++
				if pc >= len(p) {
					return fail(pc-1, ErrMissingOper)
				}
				push = uint16(p[pc])
			case PUSHZERO:
				push = 0
			case PUSHONE:
				push = 1
			case PUSHFFFF:
				push = 0xFFFF
			case PUSHFF00:
				push = 0xFF00
			case PUSH00FF:
				push = 0x00FF
			case PUSHIND:
				if !ext {
					return fail(pc, ErrExtension)
				}
				if sp < 1 {
					return fail(pc, ErrUnderflow)
				}
				sp--
				v, ok := PacketWord(pkt, int(stack[sp]))
				if !ok {
					return fail(pc, ErrWordIndex)
				}
				push = v
			case PUSHHDRLEN:
				if !ext {
					return fail(pc, ErrExtension)
				}
				push = uint16(env.HeaderWords)
			case PUSHPKTLEN:
				if !ext {
					return fail(pc, ErrExtension)
				}
				push = uint16(len(pkt))
			case PUSHBYTE:
				if !ext {
					return fail(pc, ErrExtension)
				}
				pc++
				if pc >= len(p) {
					return fail(pc-1, ErrMissingOper)
				}
				n := int(p[pc])
				if n >= len(pkt) {
					return fail(pc-1, ErrWordIndex)
				}
				push = uint16(pkt[n])
			default:
				return fail(pc, ErrBadAction)
			}
		}
		if doPush {
			if sp >= StackDepth {
				return fail(pc, ErrStackOverflow)
			}
			stack[sp] = push
			sp++
		}

		// Binary operation second.
		if op == NOP {
			continue
		}
		if !op.Valid(ext) {
			return fail(pc, ErrBadOp)
		}
		if sp < 2 {
			return fail(pc, ErrUnderflow)
		}
		t1 := stack[sp-1] // original top of stack
		t2 := stack[sp-2]
		sp -= 2
		var r uint16
		switch op {
		case EQ:
			r = b2w(t2 == t1)
		case NEQ:
			r = b2w(t2 != t1)
		case LT:
			r = b2w(t2 < t1)
		case LE:
			r = b2w(t2 <= t1)
		case GT:
			r = b2w(t2 > t1)
		case GE:
			r = b2w(t2 >= t1)
		case AND:
			r = t2 & t1
		case OR:
			r = t2 | t1
		case XOR:
			r = t2 ^ t1
		case COR:
			if t1 == t2 {
				res.Accept = true
				return res
			}
			r = 0
		case CAND:
			if t1 != t2 {
				res.Accept = false
				return res
			}
			r = 1
		case CNOR:
			if t1 == t2 {
				res.Accept = false
				return res
			}
			r = 0
		case CNAND:
			if t1 != t2 {
				res.Accept = true
				return res
			}
			r = 1
		case ADD:
			r = t2 + t1
		case SUB:
			r = t2 - t1
		case MUL:
			r = t2 * t1
		case LSH:
			r = t2 << (t1 & 15)
		case RSH:
			r = t2 >> (t1 & 15)
		default:
			return fail(pc, ErrBadOp)
		}
		stack[sp] = r
		sp++
	}

	if sp == 0 {
		return fail(len(p), ErrEmptyStack)
	}
	res.Accept = stack[sp-1] != 0
	return res
}

func b2w(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}
