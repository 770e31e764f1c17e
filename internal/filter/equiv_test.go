package filter

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genProgram builds a random but well-formed base-language program and
// a matching random packet source.  It tracks stack depth so generated
// programs always validate; short-circuit ops and every action/op kind
// appear.
func genProgram(r *rand.Rand, maxLen int) Program {
	var p Program
	depth := 0
	instrs := 0
	for instrs < maxLen {
		var a Action
		switch r.Intn(8) {
		case 0:
			a = PUSHLIT
		case 1:
			a = PUSHZERO
		case 2:
			a = PUSHONE
		case 3:
			a = PUSHFFFF
		case 4:
			a = PUSHFF00
		case 5:
			a = PUSH00FF
		default:
			a = PushWord(r.Intn(24)) // sometimes beyond short packets
		}
		op := NOP
		// Bias toward emitting operators when the stack allows.
		if depth+1 >= 2 && r.Intn(3) > 0 {
			op = Op(1 + r.Intn(int(CNAND))) // EQ..CNAND
		}
		if depth >= StackDepth {
			// Must consume: force an operator without a push.
			a = NOPUSH
			op = Op(1 + r.Intn(int(XOR)))
		}
		p = append(p, MkInstr(a, op))
		if a == PUSHLIT {
			p = append(p, Word(r.Intn(5))) // small literals collide with fields
		}
		if a != NOPUSH {
			depth++
		}
		if op != NOP {
			depth--
		}
		instrs++
	}
	// Ensure a non-empty final stack.
	if depth == 0 {
		p = append(p, MkInstr(PUSHONE, NOP))
	}
	return p
}

func genPacket(r *rand.Rand) []byte {
	n := r.Intn(64)
	pkt := make([]byte, n)
	for i := range pkt {
		pkt[i] = byte(r.Intn(5)) // small values to make comparisons collide
	}
	return pkt
}

// TestCompiledEquivalence checks that the flat-IR compiler accepts
// exactly the packets the checked interpreter accepts, at the same
// executed-instruction count, over random valid programs and packets
// including packets too short for the program.
func TestCompiledEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := genProgram(r, 1+r.Intn(12))
		fp, err := CompileFlat(p, ValidateOptions{}, Env{})
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, p)
		}
		for j := 0; j < 8; j++ {
			pkt := genPacket(r)
			want, got := Run(p, pkt), fp.Run(pkt)
			if got.Accept != want.Accept || got.Instrs != want.Instrs {
				t.Fatalf("mismatch (checked=%v/%d compiled=%v/%d)\npkt len %d\n%s",
					want.Accept, want.Instrs, got.Accept, got.Instrs, len(pkt), p)
			}
		}
	}
}

// TestRunNeverPanics feeds arbitrary word soup to the checked
// interpreter: whatever a user binds to a port, the "kernel" must not
// crash (§2 lists kernel crashes as the cost of in-kernel protocol
// code; the interpreter is the part that faces untrusted input).
func TestRunNeverPanics(t *testing.T) {
	f := func(ws []uint16, pkt []byte) bool {
		p := make(Program, len(ws))
		for i, w := range ws {
			p[i] = Word(w)
		}
		Run(p, pkt)           // must not panic
		RunExt(p, pkt, Env{}) // must not panic
		Validate(p, ValidateOptions{Extensions: true})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestValidatedProgramsRunCleanly: any program the validator accepts
// must execute without internal errors on packets long enough for its
// constant accesses (the validator's contract with the fast path).
func TestValidatedProgramsRunCleanly(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p := genProgram(r, 1+r.Intn(12))
		info, err := Validate(p, ValidateOptions{})
		if err != nil {
			t.Fatalf("invalid generated program: %v", err)
		}
		pkt := make([]byte, 2*(info.MaxWord+1)+2)
		if res := Run(p, pkt); res.Err != nil {
			t.Fatalf("validated program errored on a long packet: %v\n%s", res.Err, p)
		}
	}
}
