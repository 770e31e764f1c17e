package filter

import (
	"bytes"
	"errors"
	"testing"
)

// Native fuzz targets.  `go test` runs the seed corpus as ordinary
// tests; `go test -fuzz=FuzzRun ./internal/filter` explores further.
// The properties mirror the kernel's obligations: arbitrary programs
// and packets must never panic the interpreter, and the §7 fast paths
// must agree with checked interpretation whenever the program is
// valid.

func FuzzRun(f *testing.F) {
	fig38, _ := Fig38PupTypeRange().Program.Clone(), 0
	seed := make([]byte, 2*len(fig38))
	for i, w := range fig38 {
		seed[2*i] = byte(w >> 8)
		seed[2*i+1] = byte(w)
	}
	f.Add(seed, []byte{0x01, 0x02, 0x00, 0x02, 0x00, 0x1A})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x00, 0x41}, []byte{1, 2, 3}) // bare EQ: underflow

	f.Fuzz(func(t *testing.T, progBytes, pkt []byte) {
		prog := make(Program, len(progBytes)/2)
		for i := range prog {
			prog[i] = Word(uint16(progBytes[2*i])<<8 | uint16(progBytes[2*i+1]))
		}
		checked := Run(prog, pkt)              // must not panic
		RunExt(prog, pkt, Env{HeaderWords: 2}) // must not panic
		if checked.Err != nil && checked.Accept {
			// Errors must reject: "or an error is detected, it
			// returns" — never deliver on a faulted evaluation.
			t.Fatalf("evaluation errored (%v) yet accepted the packet", checked.Err)
		}

		// When the program validates, the fast paths must agree.
		if _, err := Validate(prog, ValidateOptions{}); err == nil {
			fp, err := CompileFlat(prog, ValidateOptions{}, Env{})
			if err != nil {
				t.Fatalf("Validate ok but CompileFlat failed: %v", err)
			}
			if got := fp.Run(pkt); got.Accept != checked.Accept {
				t.Fatalf("compiled diverges: %v vs %v", got.Accept, checked.Accept)
			}
			opt := Optimize(prog, ValidateOptions{})
			if got := Run(opt, pkt); got.Accept != checked.Accept {
				t.Fatalf("optimizer diverges: %v vs %v", got.Accept, checked.Accept)
			}
		}
	})
}

// FuzzAdversarial drives randomized hostile programs through the whole
// defensive contract at once: Validate must never admit a program the
// interpreter faults on structurally, WorstInstrs must dominate every
// execution, a fuel budget must be respected to the instruction, and
// the merged decision table must agree with linear evaluation verdict
// for verdict.  This is the property the resource governor's admission
// arithmetic rests on.
func FuzzAdversarial(f *testing.F) {
	worst := MaxInstrsProgram()
	seed := make([]byte, 2*len(worst))
	for i, w := range worst {
		seed[2*i] = byte(w >> 8)
		seed[2*i+1] = byte(w)
	}
	f.Add(seed, []byte{0x01, 0x02, 0x00, 0x02, 0x00, 0x1A}, uint8(4))
	fig39 := Fig39PupSocket().Program
	seed39 := make([]byte, 2*len(fig39))
	for i, w := range fig39 {
		seed39[2*i] = byte(w >> 8)
		seed39[2*i+1] = byte(w)
	}
	f.Add(seed39, []byte{0, 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 35}, uint8(2))
	f.Add([]byte{0x04, 0x00, 0x00, 0x4B}, []byte{}, uint8(0)) // PUSHONE; PUSHZERO|CAND

	f.Fuzz(func(t *testing.T, progBytes, pkt []byte, fuelSeed uint8) {
		prog := make(Program, len(progBytes)/2)
		for i := range prog {
			prog[i] = Word(uint16(progBytes[2*i])<<8 | uint16(progBytes[2*i+1]))
		}
		info, err := Validate(prog, ValidateOptions{})
		if err != nil {
			// Invalid programs must still never panic the checked
			// interpreter (the kernel refuses them at bind, but a
			// fuzzer does not get to assume that).
			Run(prog, pkt)
			return
		}
		if info.WorstInstrs > info.Instrs || (len(prog) > 0 && info.WorstInstrs <= 0) {
			t.Fatalf("WorstInstrs %d out of range (Instrs %d)", info.WorstInstrs, info.Instrs)
		}

		checked := Run(prog, pkt)
		if checked.Instrs > info.WorstInstrs {
			t.Fatalf("executed %d instrs > WorstInstrs %d", checked.Instrs, info.WorstInstrs)
		}

		// Fuel must be respected exactly, and a covering budget must
		// not change the verdict.
		fuel := int(fuelSeed) % (info.Instrs + 2)
		fueled := RunFuel(prog, pkt, fuel)
		if fueled.Instrs > fuel {
			t.Fatalf("fuel %d: executed %d instrs", fuel, fueled.Instrs)
		}
		if errors.Is(fueled.Err, ErrFuel) && fueled.Accept {
			t.Fatalf("fuel-exhausted run accepted the packet")
		}
		full := RunFuel(prog, pkt, info.WorstInstrs)
		if full.Accept != checked.Accept || full.Instrs != checked.Instrs ||
			(full.Err == nil) != (checked.Err == nil) {
			t.Fatalf("covering fuel changed the result: %+v vs %+v", full, checked)
		}
		// The governor admits a flat-IR filter on WorstInstrs before
		// running it whole, so the bound must dominate it too.
		fp, err := CompileFlat(prog, ValidateOptions{}, Env{})
		if err != nil {
			t.Fatalf("Validate ok but CompileFlat failed: %v", err)
		}
		if got := fp.Run(pkt); got.Instrs > info.WorstInstrs {
			t.Fatalf("flat run executed %d instrs > WorstInstrs %d", got.Instrs, info.WorstInstrs)
		}

		// One-filter decision table must reach the same verdict as
		// linear checked evaluation, fueled or not.
		tbl := BuildTable([]Filter{{Priority: 1, Program: prog}})
		matched := len(tbl.Match(pkt)) > 0
		if matched != checked.Accept {
			t.Fatalf("table verdict %v diverges from linear %v\n%s", matched, checked.Accept, prog)
		}
		tw := tbl.WorstInstrs()
		res, err := tbl.MatchFuel(pkt, tw)
		if err != nil {
			t.Fatalf("covered MatchFuel refused: %v", err)
		}
		if (len(res.Idxs) > 0) != matched {
			t.Fatalf("fueled table verdict diverges from unfueled")
		}
	})
}

func FuzzAssemble(f *testing.F) {
	f.Add("PUSHWORD+8 PUSHLIT|CAND 35\nPUSHWORD+1 PUSHLIT|EQ 2")
	f.Add("PUSHONE")
	f.Add("# comment only")
	f.Add("PUSHBYTE 14 PUSHIND PUSHPKTLEN OR")

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src) // must not panic
		if err != nil {
			return
		}
		// Whatever assembles must disassemble and re-assemble to
		// the identical program.
		back, err := Assemble(prog.String())
		if err != nil {
			t.Fatalf("disassembly does not re-assemble: %v\n%s", err, prog)
		}
		if !back.Equal(prog) {
			t.Fatalf("round trip changed the program:\n%s\nvs\n%s", prog, back)
		}
	})
}

func FuzzFilterMarshal(f *testing.F) {
	data, _ := Fig39PupSocket().MarshalBinary()
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte{10, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var flt Filter
		if err := flt.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := flt.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of unmarshaled filter failed: %v", err)
		}
		// The canonical prefix must round-trip.
		if !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("round trip changed bytes: %x vs %x", out, data[:len(out)])
		}
	})
}
