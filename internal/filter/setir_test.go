package filter

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// randProgWords draws an arbitrary word sequence — mostly invalid
// programs, which is the point: CompileFlat must agree with Validate
// about what is compilable, and the compiled code must agree with the
// interpreter on everything that is.
func randProgWords(r *rand.Rand) Program {
	n := r.Intn(24)
	p := make(Program, n)
	for i := range p {
		p[i] = Word(r.Uint32())
	}
	return p
}

// randPacket draws a packet, biased toward short ones so truncation
// behavior is exercised.
func randPacket(r *rand.Rand) []byte {
	n := r.Intn(40)
	b := make([]byte, n)
	r.Read(b)
	return b
}

// TestFlatMatchesInterpreter pins verdict and executed-instruction
// parity between the flat register code and the checked interpreter
// across random programs and packets, with and without extensions.
func TestFlatMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(991))
	env := Env{HeaderWords: 2}
	compiled := 0
	for trial := 0; trial < 20000; trial++ {
		p := randProgWords(r)
		ext := trial%2 == 1
		opt := ValidateOptions{Extensions: ext}
		fp, err := CompileFlat(p, opt, env)
		if _, verr := Validate(p, opt); (verr == nil) != (err == nil) {
			t.Fatalf("trial %d: Validate err %v, CompileFlat err %v", trial, verr, err)
		}
		if err != nil {
			continue
		}
		compiled++
		for k := 0; k < 4; k++ {
			pkt := randPacket(r)
			var want Result
			if ext {
				want = RunExt(p, pkt, env)
			} else {
				want = Run(p, pkt)
			}
			got := fp.Run(pkt)
			if got.Accept != want.Accept || got.Instrs != want.Instrs {
				t.Fatalf("trial %d: flat (accept=%v instrs=%d) != interp (accept=%v instrs=%d)\nprog: %v\npkt: %v",
					trial, got.Accept, got.Instrs, want.Accept, want.Instrs, p, pkt)
			}
			if (got.Err == nil) != (want.Err == nil) {
				t.Fatalf("trial %d: flat err %v, interp err %v", trial, got.Err, want.Err)
			}
		}
	}
	if compiled < 100 {
		t.Fatalf("only %d random programs compiled; generator too weak", compiled)
	}
}

// TestFlatMatchesCanonicalFilters pins parity against the checked
// interpreter on the canonical filters, over packets of every length
// up to 40 bytes.
func TestFlatMatchesCanonicalFilters(t *testing.T) {
	progs := []Program{
		DstSocketFilter(10, 35).Program,
		NewBuilder().WordEQ(7, 0).WordEQ(8, 35).And().MustProgram(),
		NewBuilder().CANDWordEQ(1, PupEtherType).CANDWordEQ(8, 35).PushOne().MustProgram(),
		NewBuilder().AcceptAll().MustProgram(),
		NewBuilder().RejectAll().MustProgram(),
	}
	r := rand.New(rand.NewSource(7))
	for pi, p := range progs {
		fp, err := CompileFlat(p, ValidateOptions{}, Env{})
		if err != nil {
			t.Fatalf("prog %d: %v", pi, err)
		}
		for k := 0; k < 200; k++ {
			pkt := randPacket(r)
			want, got := Run(p, pkt), fp.Run(pkt)
			if got.Accept != want.Accept || got.Instrs != want.Instrs {
				t.Fatalf("prog %d pkt %v: flat (%v,%d) != interp (%v,%d)",
					pi, pkt, got.Accept, got.Instrs, want.Accept, want.Instrs)
			}
		}
	}
}

// boundaryCase is a one-access program and the packet length its
// access needs: a packet of need bytes ends exactly at the access, one
// of need-1 bytes is one byte short of it.
type boundaryCase struct {
	name string
	prog Program
	ext  bool
	need int
}

func boundaryCases() []boundaryCase {
	return []boundaryCase{
		{"FWord", NewBuilder().PushWord(3).MustProgram(), false, 8},
		{"FByte", NewExtendedBuilder().PushByte(5).MustProgram(), true, 6},
		{"FInd", NewExtendedBuilder().PushLit(3).PushInd().MustProgram(), true, 8},
	}
}

// boundaryPacket is n bytes of non-zero filler, so an in-range access
// pushes a non-zero value and the filter accepts.
func boundaryPacket(n int) []byte { return bytes.Repeat([]byte{0xAB}, n) }

// TestFlatBoundaryPackets feeds each flat packet access a packet that
// ends exactly at it and one a byte short: the flat code must accept
// the first and reject the second with ErrWordIndex at the same
// executed-instruction count as the checked interpreter, and never
// index past the packet.
func TestFlatBoundaryPackets(t *testing.T) {
	for _, c := range boundaryCases() {
		opt := ValidateOptions{Extensions: c.ext}
		fp, err := CompileFlat(c.prog, opt, Env{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, n := range []int{c.need, c.need - 1} {
			pkt := boundaryPacket(n)
			want := run(c.prog, pkt, Env{}, c.ext, len(c.prog))
			got := fp.Run(pkt)
			short := n < c.need
			if want.Accept == short || errors.Is(want.Err, ErrWordIndex) != short {
				t.Fatalf("%s len %d: interpreter (%v, %v) is not the boundary verdict", c.name, n, want.Accept, want.Err)
			}
			if got.Accept != want.Accept || got.Instrs != want.Instrs ||
				errors.Is(got.Err, ErrWordIndex) != errors.Is(want.Err, ErrWordIndex) {
				t.Errorf("%s len %d: flat (%v, %d, %v) != interp (%v, %d, %v)",
					c.name, n, got.Accept, got.Instrs, got.Err, want.Accept, want.Instrs, want.Err)
			}
		}
	}
}

// progBytes encodes a program as the big-endian word bytes the fuzz
// targets decode.
func progBytes(p Program) []byte {
	b := make([]byte, 2*len(p))
	for i, w := range p {
		b[2*i], b[2*i+1] = byte(w>>8), byte(w)
	}
	return b
}

// TestFlatRoundTrip pins the binary encoding: marshal → unmarshal →
// marshal is byte-identical and the decoded program evaluates
// identically.
func TestFlatRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	n := 0
	for trial := 0; trial < 5000 && n < 500; trial++ {
		p := randProgWords(r)
		fp, err := CompileFlat(p, ValidateOptions{}, Env{})
		if err != nil {
			continue
		}
		n++
		enc, err := fp.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		dec, err := UnmarshalFlat(enc)
		if err != nil {
			t.Fatalf("unmarshal: %v\nimage: %v", err, enc)
		}
		enc2, err := dec.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not byte-identical:\n%v\n%v", enc, enc2)
		}
		pkt := randPacket(r)
		a, b := fp.Run(pkt), dec.Run(pkt)
		if a.Accept != b.Accept || a.Instrs != b.Instrs {
			t.Fatalf("decoded program diverges: (%v,%d) vs (%v,%d)", a.Accept, a.Instrs, b.Accept, b.Instrs)
		}
	}
	if n < 100 {
		t.Fatalf("only %d programs exercised", n)
	}
}

// FuzzFlatRoundTrip feeds arbitrary bytes to the decoder: it must
// never panic, and anything it accepts must re-encode byte-identically
// and evaluate without panicking.
func FuzzFlatRoundTrip(f *testing.F) {
	for _, p := range []Program{
		DstSocketFilter(10, 35).Program,
		NewBuilder().AcceptAll().MustProgram(),
		NewBuilder().WordEQ(1, PupEtherType).WordEQ(8, 35).And().MustProgram(),
	} {
		fp, err := CompileFlat(p, ValidateOptions{}, Env{})
		if err != nil {
			f.Fatal(err)
		}
		enc, err := fp.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, []byte{0, 1, 2, 3})
	}
	f.Fuzz(func(t *testing.T, image, pkt []byte) {
		fp, err := UnmarshalFlat(image)
		if err != nil {
			return
		}
		fp.Run(pkt)
		enc, err := fp.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted image does not re-marshal: %v", err)
		}
		if !bytes.Equal(enc, image) {
			t.Fatalf("accepted image not canonical:\n in: %v\nout: %v", image, enc)
		}
	})
}

// FuzzFlatEquivalence compiles arbitrary word sequences, with and
// without the extended instructions, and when they validate pins
// flat-vs-interpreter verdict, count and ErrWordIndex parity.  The
// boundary packets of TestFlatBoundaryPackets are seeds.
func FuzzFlatEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04}, []byte{0, 35})
	for _, c := range boundaryCases() {
		f.Add(progBytes(c.prog), boundaryPacket(c.need))
		f.Add(progBytes(c.prog), boundaryPacket(c.need-1))
	}
	env := Env{HeaderWords: 2}
	f.Fuzz(func(t *testing.T, raw, pkt []byte) {
		if len(raw) > 2*MaxProgramLen {
			return
		}
		p := make(Program, len(raw)/2)
		for i := range p {
			p[i] = Word(uint16(raw[2*i])<<8 | uint16(raw[2*i+1]))
		}
		for _, ext := range []bool{false, true} {
			fp, err := CompileFlat(p, ValidateOptions{Extensions: ext}, env)
			if err != nil {
				continue
			}
			want := run(p, pkt, env, ext, len(p))
			got := fp.Run(pkt)
			if got.Accept != want.Accept || got.Instrs != want.Instrs ||
				errors.Is(got.Err, ErrWordIndex) != errors.Is(want.Err, ErrWordIndex) {
				t.Fatalf("ext=%v: flat (%v,%d,%v) != interp (%v,%d,%v)\nprog: %v\npkt: %v",
					ext, got.Accept, got.Instrs, got.Err, want.Accept, want.Instrs, want.Err, p, pkt)
			}
		}
	})
}
