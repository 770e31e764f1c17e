package filter

import (
	"errors"
	"testing"
)

// pupFrameForSocket builds a 3 Mb-header Pup-ish packet whose words 1,
// 7 and 8 satisfy (or not) the paper's example filters.
func fuelTestPacket(etherType, sockHi, sockLo, pupType uint16) []byte {
	pkt := make([]byte, 40)
	put := func(word int, v uint16) {
		pkt[2*word] = byte(v >> 8)
		pkt[2*word+1] = byte(v)
	}
	put(1, etherType)
	put(3, pupType)
	put(7, sockHi)
	put(8, sockLo)
	return pkt
}

// TestWorstInstrsPaperPrograms pins the worst-case executed-path bound
// on the paper's figure 3-8 and 3-9 listings: neither program contains
// a short circuit whose outcome is statically known (every CAND in
// fig. 3-9 compares a packet word against a constant), so the bound is
// the full instruction count.
func TestWorstInstrsPaperPrograms(t *testing.T) {
	cases := []struct {
		name        string
		prog        Program
		instrs      int
		worstInstrs int
	}{
		{"fig3-8", Fig38PupTypeRange().Program, 10, 10},
		{"fig3-9", Fig39PupSocket().Program, 6, 6},
	}
	for _, tc := range cases {
		info := MustValidate(tc.prog, ValidateOptions{})
		if info.Instrs != tc.instrs {
			t.Errorf("%s: Instrs = %d, want %d", tc.name, info.Instrs, tc.instrs)
		}
		if info.WorstInstrs != tc.worstInstrs {
			t.Errorf("%s: WorstInstrs = %d, want %d", tc.name, info.WorstInstrs, tc.worstInstrs)
		}
		// The bound must dominate the executed count on accepting,
		// rejecting and short (erroring) packets alike.
		for _, pkt := range [][]byte{
			fuelTestPacket(2, 0, 35, 50), // accepted by both programs
			fuelTestPacket(9, 1, 2, 200), // rejected
			make([]byte, 4),              // too short: word accesses fail
			nil,
		} {
			r := Run(tc.prog, pkt)
			if r.Instrs > info.WorstInstrs {
				t.Errorf("%s: executed %d instrs > WorstInstrs %d", tc.name, r.Instrs, info.WorstInstrs)
			}
		}
	}
}

// TestWorstInstrsConstantShortCircuit checks that constant propagation
// tightens the bound when a short-circuit operator provably fires: the
// tail past it is validated but can never execute.
func TestWorstInstrsConstantShortCircuit(t *testing.T) {
	cases := []struct {
		name   string
		prog   Program
		worst  int
		accept bool
	}{
		{
			// PUSHONE; PUSHZERO|CAND: 1 != 0 always exits FALSE at
			// instruction 2; the packet-word tail never runs.
			"cand-always-false",
			Program{
				MkInstr(PUSHONE, NOP), MkInstr(PUSHZERO, CAND),
				MkInstr(PushWord(0), NOP), MkInstr(PUSHONE, OR),
			},
			2, false,
		},
		{
			// PUSHONE; PUSHONE|COR: 1 == 1 always exits TRUE.
			"cor-always-true",
			Program{
				MkInstr(PUSHONE, NOP), MkInstr(PUSHONE, COR),
				MkInstr(PushWord(0), NOP), MkInstr(PushWord(1), OR),
				MkInstr(PushWord(2), AND),
			},
			2, true,
		},
		{
			// The constant feeding the short circuit is itself computed:
			// 2+3=5, 5 != 7 -> CAND exits FALSE.
			"arith-fed-cand",
			Program{
				MkInstr(PUSHLIT, NOP), 2,
				MkInstr(PUSHLIT, ADD), 3,
				MkInstr(PUSHLIT, CAND), 7,
				MkInstr(PushWord(0), NOP), MkInstr(PUSHONE, OR),
			},
			3, false,
		},
	}
	for _, tc := range cases {
		opt := ValidateOptions{Extensions: true}
		info := MustValidate(tc.prog, opt)
		if info.WorstInstrs != tc.worst {
			t.Errorf("%s: WorstInstrs = %d, want %d (Instrs %d)",
				tc.name, info.WorstInstrs, tc.worst, info.Instrs)
		}
		if info.WorstInstrs > info.Instrs {
			t.Errorf("%s: WorstInstrs %d exceeds Instrs %d", tc.name, info.WorstInstrs, info.Instrs)
		}
		r := RunExt(tc.prog, make([]byte, 64), Env{})
		if r.Err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, r.Err)
		}
		if r.Accept != tc.accept {
			t.Errorf("%s: accept = %v, want %v", tc.name, r.Accept, tc.accept)
		}
		if r.Instrs != tc.worst {
			t.Errorf("%s: executed %d instrs, want exactly the bound %d", tc.name, r.Instrs, tc.worst)
		}
	}
}

// TestRunFuel checks the metered interpreter: a budget covering the
// execution is invisible, an insufficient one stops evaluation with
// ErrFuel after exactly fuel instruction words.
func TestRunFuel(t *testing.T) {
	prog := Fig38PupTypeRange().Program
	pkt := fuelTestPacket(2, 0, 35, 50)
	full := Run(prog, pkt)
	if !full.Accept || full.Err != nil {
		t.Fatalf("baseline run: %+v", full)
	}

	got := RunFuel(prog, pkt, full.Instrs)
	if got != full {
		t.Errorf("fuel == executed: got %+v, want %+v", got, full)
	}
	for fuel := 0; fuel < full.Instrs; fuel++ {
		r := RunFuel(prog, pkt, fuel)
		if !errors.Is(r.Err, ErrFuel) {
			t.Fatalf("fuel %d: err = %v, want ErrFuel", fuel, r.Err)
		}
		if r.Accept {
			t.Fatalf("fuel %d: exhausted run must reject", fuel)
		}
		if r.Instrs != fuel {
			t.Fatalf("fuel %d: executed %d instrs", fuel, r.Instrs)
		}
	}
}

// TestTableMatchFuel checks the merged table's admission bound: the
// static worst case dominates the work of every match, a covered call
// is identical to MatchStats, and a starved call refuses to run.
func TestTableMatchFuel(t *testing.T) {
	filters := []Filter{
		Fig39PupSocket(),
		DstSocketFilter(9, 0x1234),
		{Priority: 5, Program: Fig38PupTypeRange().Program}, // linear fallback (range test)
	}
	tbl := BuildTable(filters)
	worst := tbl.WorstInstrs()
	if worst <= 0 {
		t.Fatalf("WorstInstrs = %d", worst)
	}
	for _, pkt := range [][]byte{
		fuelTestPacket(2, 0, 35, 7),
		fuelTestPacket(2, 0, 0x1234, 7),
		fuelTestPacket(9, 9, 9, 9),
		make([]byte, 2),
	} {
		want := tbl.MatchStats(pkt)
		if got := want.Edges; got > worst {
			t.Errorf("match did %d edges > worst bound %d", got, worst)
		}
		totalWork := want.Edges
		for _, le := range want.Linear {
			totalWork += le.Instrs
		}
		if totalWork > worst {
			t.Errorf("match work %d > worst bound %d", totalWork, worst)
		}
		res, err := tbl.MatchFuel(pkt, worst)
		if err != nil {
			t.Fatalf("covered MatchFuel: %v", err)
		}
		if len(res.Idxs) != len(want.Idxs) {
			t.Errorf("covered MatchFuel diverged: %v vs %v", res.Idxs, want.Idxs)
		}
		if _, err := tbl.MatchFuel(pkt, worst-1); !errors.Is(err, ErrFuel) {
			t.Errorf("starved MatchFuel err = %v, want ErrFuel", err)
		}
	}
}
