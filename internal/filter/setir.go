package filter

// This file implements both of §7's proposed speedups with one
// evaluator.  "All these tests can be performed ahead of time":
// CompileFlat validates a program once, at bind time, so the
// per-packet loop carries no action/operator validity, operand or
// stack-depth checks.  "Even more speed could be gained by compiling
// filters into machine code": the program is compiled to a flat,
// register-based intermediate representation.  The stack language has
// no branches, so the stack depth at every program point is a
// compile-time constant; each stack slot therefore becomes a virtual
// register and every instruction is compiled to at most two fixed-size
// flat instructions (one for the push action, one for the binary
// operator) with all decoding, constants and register numbers resolved
// ahead of time.  The per-packet loop is a single switch over a
// contiguous instruction array — no closure chain, no indirect calls,
// no evaluation-state pool (the register file lives on the caller's
// stack).
//
// Acceptance and the executed-instruction count are bit-for-bit
// identical to the checked interpreter: each flat instruction carries
// the number of source instruction words it retires, out-of-range
// packet accesses reject at exactly the same source word, and the
// short-circuit operators terminate with exactly the same counts.
// TestFlatMatchesInterpreter, TestFlatBoundaryPackets and the
// FuzzFlatEquivalence fuzzer in setir_test.go pin all of this.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FlatOp is a flat-IR opcode.
type FlatOp uint8

const (
	FNop  FlatOp = iota // retire source words with no effect
	FLit                // reg[Dst] = Val
	FWord               // reg[Dst] = packet word Val (reject if out of range)
	FByte               // reg[Dst] = packet byte Val (reject if out of range)
	FInd                // reg[Dst] = packet word reg[A] (reject if out of range)
	FHdr                // reg[Dst] = env.HeaderWords
	FPkt                // reg[Dst] = len(pkt)
	FBin                // reg[Dst] = reg[A] <Sub> reg[B]
	FCond               // short-circuit <Sub> on reg[A], reg[B]; may terminate
	FRet                // accept = reg[A] != 0
	flatOpEnd
)

// FlatInstr is one fixed-size flat instruction.  Cost is the number of
// source instruction words this instruction retires (so executed-cost
// accounting matches the interpreter exactly); Pc is the source word
// index, kept for diagnostics.
type FlatInstr struct {
	Op   FlatOp
	Sub  Op // binary operator for FBin / FCond
	Dst  uint8
	A, B uint8
	Cost uint8
	Pc   uint8
	Val  uint16
}

// FlatProg is one filter program compiled to flat register code.
// Construct with CompileFlat; evaluate with Run.  Safe for concurrent
// use: evaluation state lives entirely on the caller's stack.
type FlatProg struct {
	code []FlatInstr
	info Info
	prog Program
	env  Env
	ext  bool
}

// CompileFlat validates p and compiles it to flat register code.  env
// is bound at compile time (the extended header-length action is a
// per-device constant in the original driver, so binding it at compile
// time loses nothing).
func CompileFlat(p Program, opt ValidateOptions, env Env) (*FlatProg, error) {
	info, err := Validate(p, opt)
	if err != nil {
		return nil, err
	}
	f := &FlatProg{info: info, prog: p.Clone(), env: env, ext: opt.Extensions}

	depth := 0 // static stack depth before the current instruction
	for pc := 0; pc < len(p); pc++ {
		w := p[pc]
		a, op := w.Action(), w.Op()
		srcPC := pc
		emitted := false
		emit := func(in FlatInstr) {
			in.Pc = uint8(srcPC)
			if !emitted {
				in.Cost = 1 // the interpreter counts each source word once
				emitted = true
			}
			f.code = append(f.code, in)
		}

		switch {
		case a == NOPUSH:
			// no push
		case a == PUSHLIT:
			pc++
			emit(FlatInstr{Op: FLit, Dst: uint8(depth), Val: uint16(p[pc])})
			depth++
		case a == PUSHZERO:
			emit(FlatInstr{Op: FLit, Dst: uint8(depth), Val: 0})
			depth++
		case a == PUSHONE:
			emit(FlatInstr{Op: FLit, Dst: uint8(depth), Val: 1})
			depth++
		case a == PUSHFFFF:
			emit(FlatInstr{Op: FLit, Dst: uint8(depth), Val: 0xFFFF})
			depth++
		case a == PUSHFF00:
			emit(FlatInstr{Op: FLit, Dst: uint8(depth), Val: 0xFF00})
			depth++
		case a == PUSH00FF:
			emit(FlatInstr{Op: FLit, Dst: uint8(depth), Val: 0x00FF})
			depth++
		case a == PUSHIND:
			// Pops the index, pushes the word: net depth unchanged.
			emit(FlatInstr{Op: FInd, Dst: uint8(depth - 1), A: uint8(depth - 1)})
		case a == PUSHHDRLEN:
			emit(FlatInstr{Op: FLit, Dst: uint8(depth), Val: uint16(env.HeaderWords)})
			depth++
		case a == PUSHPKTLEN:
			emit(FlatInstr{Op: FPkt, Dst: uint8(depth)})
			depth++
		case a == PUSHBYTE:
			pc++
			emit(FlatInstr{Op: FByte, Dst: uint8(depth), Val: uint16(p[pc])})
			depth++
		default: // PUSHWORD+n
			emit(FlatInstr{Op: FWord, Dst: uint8(depth), Val: uint16(a - PUSHWORD)})
			depth++
		}

		if op == NOP {
			if !emitted {
				emit(FlatInstr{Op: FNop})
			}
			continue
		}
		// reg[depth-2] is t2, reg[depth-1] is t1; the result replaces t2.
		in := FlatInstr{Sub: op, Dst: uint8(depth - 2), A: uint8(depth - 2), B: uint8(depth - 1)}
		switch op {
		case COR, CAND, CNOR, CNAND:
			in.Op = FCond
		default:
			in.Op = FBin
		}
		emit(in)
		depth--
	}
	if len(p) > 0 {
		f.code = append(f.code, FlatInstr{Op: FRet, A: uint8(depth - 1), Pc: uint8(len(p) - 1)})
	}
	return f, nil
}

// Info returns the static summary computed at compile time.
func (f *FlatProg) Info() Info { return f.info }

// Program returns the source program.
func (f *FlatProg) Program() Program { return f.prog }

// Code returns the compiled instruction array (shared, do not modify).
func (f *FlatProg) Code() []FlatInstr { return f.code }

// Run evaluates the flat program against pkt.  Acceptance and Instrs
// are identical to the checked interpreter's (Run, or RunExt for a
// program compiled with extensions) on the same program.
func (f *FlatProg) Run(pkt []byte) Result {
	var reg [StackDepth]uint16
	res := Result{}
	if len(f.code) == 0 {
		res.Accept = true // the empty filter accepts everything
		return res
	}
	for i := range f.code {
		in := &f.code[i]
		res.Instrs += int(in.Cost)
		switch in.Op {
		case FNop:
		case FLit:
			reg[in.Dst] = in.Val
		case FWord:
			v, ok := PacketWord(pkt, int(in.Val))
			if !ok {
				res.Err = fmt.Errorf("word %d: %w", in.Pc, ErrWordIndex)
				return res
			}
			reg[in.Dst] = v
		case FByte:
			if int(in.Val) >= len(pkt) {
				res.Err = fmt.Errorf("word %d: %w", in.Pc, ErrWordIndex)
				return res
			}
			reg[in.Dst] = uint16(pkt[in.Val])
		case FInd:
			v, ok := PacketWord(pkt, int(reg[in.A]))
			if !ok {
				res.Err = fmt.Errorf("word %d: %w", in.Pc, ErrWordIndex)
				return res
			}
			reg[in.Dst] = v
		case FPkt:
			reg[in.Dst] = uint16(len(pkt))
		case FBin:
			t2, t1 := reg[in.A], reg[in.B]
			var r uint16
			switch in.Sub {
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
			}
			reg[in.Dst] = r
		case FCond:
			t2, t1 := reg[in.A], reg[in.B]
			switch in.Sub {
			case COR:
				if t1 == t2 {
					res.Accept = true
					return res
				}
				reg[in.Dst] = 0
			case CAND:
				if t1 != t2 {
					return res
				}
				reg[in.Dst] = 1
			case CNOR:
				if t1 == t2 {
					return res
				}
				reg[in.Dst] = 0
			case CNAND:
				if t1 != t2 {
					res.Accept = true
					return res
				}
				reg[in.Dst] = 1
			}
		case FRet:
			res.Accept = reg[in.A] != 0
			return res
		}
	}
	return res
}

// flatMagic heads the flat-IR binary encoding.
var flatMagic = [4]byte{'P', 'F', 'I', 'R'}

const flatVersion = 1

var (
	// ErrFlatEncoding reports a malformed flat-IR binary image.
	ErrFlatEncoding = errors.New("filter: malformed flat-IR encoding")
)

// MarshalBinary encodes the flat program: magic, version, flags, the
// static Info summary, the source program (MarshalBinary word format
// without the priority byte) and the instruction array.  The encoding
// round-trips exactly: UnmarshalFlat(enc).MarshalBinary() == enc.
func (f *FlatProg) MarshalBinary() ([]byte, error) {
	if len(f.prog) > MaxProgramLen {
		return nil, ErrTooLong
	}
	if len(f.code) > 2*MaxProgramLen+1 {
		return nil, ErrFlatEncoding
	}
	buf := make([]byte, 0, 16+2*len(f.prog)+10*len(f.code))
	buf = append(buf, flatMagic[:]...)
	buf = append(buf, flatVersion)
	var flags byte
	if f.ext {
		flags |= 1
	}
	buf = append(buf, flags)
	for _, v := range []int{f.info.MaxStack, f.info.MaxWord, f.info.MaxByte, f.info.Instrs, f.info.WorstInstrs} {
		buf = binary.BigEndian.AppendUint16(buf, uint16(v))
	}
	if f.info.UsesIndirect {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(f.env.HeaderWords))
	buf = append(buf, byte(len(f.prog)))
	for _, w := range f.prog {
		buf = binary.BigEndian.AppendUint16(buf, uint16(w))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.code)))
	for _, in := range f.code {
		buf = append(buf, byte(in.Op), byte(in.Sub), in.Dst, in.A, in.B, in.Cost, in.Pc)
		buf = binary.BigEndian.AppendUint16(buf, in.Val)
	}
	return buf, nil
}

// UnmarshalFlat decodes a flat-IR image produced by MarshalBinary,
// validating every structural invariant (register indices, opcode
// ranges, lengths) so that arbitrary input can never panic the
// evaluator.
func UnmarshalFlat(data []byte) (*FlatProg, error) {
	r := data
	take := func(n int) ([]byte, bool) {
		if len(r) < n {
			return nil, false
		}
		b := r[:n]
		r = r[n:]
		return b, true
	}
	hdr, ok := take(6)
	if !ok || [4]byte(hdr[:4]) != flatMagic || hdr[4] != flatVersion {
		return nil, ErrFlatEncoding
	}
	f := &FlatProg{ext: hdr[5]&1 != 0}
	if hdr[5]&^byte(1) != 0 {
		return nil, ErrFlatEncoding
	}
	ib, ok := take(13)
	if !ok {
		return nil, ErrFlatEncoding
	}
	f.info.MaxStack = int(binary.BigEndian.Uint16(ib[0:]))
	f.info.MaxWord = int(binary.BigEndian.Uint16(ib[2:]))
	f.info.MaxByte = int(binary.BigEndian.Uint16(ib[4:]))
	f.info.Instrs = int(binary.BigEndian.Uint16(ib[6:]))
	f.info.WorstInstrs = int(binary.BigEndian.Uint16(ib[8:]))
	switch ib[10] {
	case 0:
	case 1:
		f.info.UsesIndirect = true
	default:
		return nil, ErrFlatEncoding
	}
	f.env.HeaderWords = int(binary.BigEndian.Uint16(ib[11:]))
	nb, ok := take(1)
	if !ok || int(nb[0]) > MaxProgramLen {
		return nil, ErrFlatEncoding
	}
	np := int(nb[0])
	pb, ok := take(2 * np)
	if !ok {
		return nil, ErrFlatEncoding
	}
	f.prog = make(Program, np)
	for i := range f.prog {
		f.prog[i] = Word(binary.BigEndian.Uint16(pb[2*i:]))
	}
	cb, ok := take(2)
	if !ok {
		return nil, ErrFlatEncoding
	}
	nc := int(binary.BigEndian.Uint16(cb))
	if nc > 2*MaxProgramLen+1 {
		return nil, ErrFlatEncoding
	}
	f.code = make([]FlatInstr, nc)
	for i := range f.code {
		b, ok := take(9)
		if !ok {
			return nil, ErrFlatEncoding
		}
		in := FlatInstr{
			Op: FlatOp(b[0]), Sub: Op(b[1]), Dst: b[2], A: b[3], B: b[4],
			Cost: b[5], Pc: b[6], Val: binary.BigEndian.Uint16(b[7:]),
		}
		if in.Op >= flatOpEnd {
			return nil, ErrFlatEncoding
		}
		if int(in.Dst) >= StackDepth || int(in.A) >= StackDepth || int(in.B) >= StackDepth {
			return nil, ErrFlatEncoding
		}
		switch in.Op {
		case FBin:
			switch in.Sub {
			case EQ, NEQ, LT, LE, GT, GE, AND, OR, XOR, ADD, SUB, MUL, LSH, RSH:
			default:
				return nil, ErrFlatEncoding
			}
		case FCond:
			switch in.Sub {
			case COR, CAND, CNOR, CNAND:
			default:
				return nil, ErrFlatEncoding
			}
		default:
			if in.Sub != 0 {
				return nil, ErrFlatEncoding
			}
		}
		f.code[i] = in
	}
	if len(r) != 0 {
		return nil, ErrFlatEncoding
	}
	return f, nil
}
