package filter

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// churnSockets is the range the socket shape draws its low socket word
// from: thousands of values, so the node that tests that word grows
// past and shrinks below every page and bitmap-word boundary of its
// branch map.
const churnSockets = 3000

// churnFilter draws a filter from the shapes the table cares about:
// tree-compatible conjunctions over a few values, socket filters over
// thousands, fallback programs, accept/reject-all, and the occasional
// invalid program (which must match nothing).
func churnFilter(r *rand.Rand) Filter {
	pri := uint8(r.Intn(4))
	switch r.Intn(10) {
	case 0:
		return Filter{Program: NewBuilder().AcceptAll().MustProgram(), Priority: pri}
	case 1:
		return Filter{Program: NewBuilder().RejectAll().MustProgram(), Priority: pri}
	case 2: // fallback shape: a range test the extractor rejects
		return Filter{Program: NewBuilder().
			PushWord(8).PushLit(uint16(r.Intn(64))).Op(GT).MustProgram(), Priority: pri}
	case 3: // invalid: stack underflow
		return Filter{Program: Program{MkInstr(NOPUSH, AND)}, Priority: pri}
	case 4, 5, 6: // socket shape: figure 3-9 over a wide value range
		return DstSocketFilter(pri, uint32(r.Intn(2))<<16|uint32(r.Intn(churnSockets)))
	default: // tree shape: 1-3 word equality conjunction
		b := NewBuilder().WordEQ(1, PupEtherType)
		n := 1 + r.Intn(2)
		for i := 0; i < n; i++ {
			b = b.WordEQ(7+r.Intn(2), uint16(r.Intn(4))).And()
		}
		return Filter{Program: b.MustProgram(), Priority: pri}
	}
}

// churnPacket draws a packet, half the time a PUP frame whose socket
// words take values churnFilter's tree shapes test.
func churnPacket(r *rand.Rand) []byte {
	b := make([]byte, 2*(2+r.Intn(10)))
	r.Read(b)
	if r.Intn(2) == 0 { // bias toward matchable PUP frames
		b[2], b[3] = 0, byte(PupEtherType)
		if len(b) >= 18 {
			b[14], b[15] = 0, byte(r.Intn(4))
			b[16], b[17] = 0, byte(r.Intn(4))
		}
	}
	return b
}

// hitPacket returns the shortest zero-filled packet that satisfies f's
// conjunction when f is tree-shaped, and nil otherwise: a packet drawn
// at random almost never reaches one of thousands of socket values.
func hitPacket(f Filter) []byte {
	ex, ok := Extract(f.Program)
	if !ok {
		return nil
	}
	b := make([]byte, 2*ex.MinWords)
	for _, c := range ex.Conds {
		binary.BigEndian.PutUint16(b[2*c.Word:], c.Value)
	}
	return b
}

// TestTableIncremental drives a long random open/close churn through
// Insert/Remove and pins, after every step, that the patched table
// matches packets identically (accept set, order, edges, fallback
// runs) to a table built from scratch over the same slot layout — and
// that both agree with running every live program through the checked
// interpreter.
func TestTableIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	tbl := BuildTable(nil)
	// ref mirrors the slot layout the incremental table maintains.
	var ref []Filter
	live := make(map[int]bool)

	check := func(step int, p []byte) {
		// The patched table must match identically to a from-scratch
		// build over the same slot layout (dead slots modeled as
		// invalid programs, which match nothing).  Tree SHAPE may
		// differ — node word choices depend on build history — so
		// Edges is not compared, only verdicts and fallback runs.
		fresh := BuildTable(ref)
		got, want := tbl.MatchStats(p), fresh.MatchStats(p)
		if len(got.Idxs) != len(want.Idxs) {
			t.Fatalf("step %d: incremental %v != fresh %v", step, got.Idxs, want.Idxs)
		}
		for i := range got.Idxs {
			if got.Idxs[i] != want.Idxs[i] {
				t.Fatalf("step %d: incremental %v != fresh %v", step, got.Idxs, want.Idxs)
			}
		}
		if len(got.Linear) != len(want.Linear) {
			t.Fatalf("step %d: %d fallback runs != %d", step, len(got.Linear), len(want.Linear))
		}
		for i := range got.Linear {
			if got.Linear[i] != want.Linear[i] {
				t.Fatalf("step %d: fallback run %d: %+v != %+v", step, i, got.Linear[i], want.Linear[i])
			}
		}
		// And both must agree with the interpreter on every live slot.
		for slot, f := range ref {
			if !live[slot] {
				continue
			}
			wantAcc := false
			if _, err := Validate(f.Program, ValidateOptions{}); err == nil {
				wantAcc = Run(f.Program, p).Accept
			}
			gotAcc := false
			for _, idx := range got.Idxs {
				if idx == slot {
					gotAcc = true
				}
			}
			if gotAcc != wantAcc {
				t.Fatalf("step %d slot %d: table says %v, interpreter says %v (prog %v pkt %v)",
					step, slot, gotAcc, wantAcc, f.Program, p)
			}
		}
	}

	for step := 0; step < 1500; step++ {
		if len(live) == 0 || r.Intn(3) > 0 {
			f := churnFilter(r)
			var slot int
			before := tbl.Work()
			tbl, slot = tbl.Insert(f)
			if w := tbl.Work() - before; w <= 0 {
				t.Fatalf("step %d: insert charged no work", step)
			}
			if slot == len(ref) {
				ref = append(ref, f)
			} else {
				ref[slot] = f
			}
			live[slot] = true
		} else {
			// Map order is random; the pinned seed needs a
			// deterministic pick, so remove the smallest live slot.
			slot := len(ref)
			for s := range live {
				if s < slot {
					slot = s
				}
			}
			tbl = tbl.Remove(slot)
			// A dead slot matches nothing; model it in the reference
			// layout as an invalid program (Filter{} would be the
			// empty program, which accepts everything).
			ref[slot] = Filter{Program: Program{MkInstr(NOPUSH, AND)}}
			delete(live, slot)
			if tbl.Live(slot) {
				t.Fatalf("step %d: slot %d still live after Remove", step, slot)
			}
		}
		if step%7 == 0 {
			check(step, churnPacket(r))
			if s := r.Intn(len(ref)); live[s] {
				if p := hitPacket(ref[s]); p != nil {
					check(step, p)
				}
			}
		}
	}

	// Patch cost must be path-proportional: with ~hundreds of live
	// filters, one insert+remove pair must cost far less than a full
	// rebuild of the same population.
	full := BuildTable(ref).Work()
	before := tbl.Work()
	t2, slot := tbl.Insert(churnFilter(r))
	t2 = t2.Remove(slot)
	patch := t2.Work() - before
	if patch*5 > full {
		t.Fatalf("patch work %d not <5x cheaper than full rebuild %d", patch, full)
	}
}

// TestTableRemoveDeadSlot pins that removing an unassigned or already
// dead slot is a harmless no-op clone.
func TestTableRemoveDeadSlot(t *testing.T) {
	tbl := BuildTable([]Filter{DstSocketFilter(10, 35)})
	t2 := tbl.Remove(0)
	t3 := t2.Remove(0)
	t4 := t3.Remove(99)
	pkt := make([]byte, 32)
	pkt[3] = byte(PupEtherType)
	pkt[17] = 35
	if got := tbl.Match(pkt); len(got) != 1 || got[0] != 0 {
		t.Fatalf("original table lost its filter: %v", got)
	}
	for i, tt := range []*Table{t2, t3, t4} {
		if got := tt.Match(pkt); len(got) != 0 {
			t.Fatalf("table %d still matches after remove: %v", i, got)
		}
	}
}

// TestTableSlotReuse pins that a freed slot is reused by the next
// insert and that the recycled slot matches its new filter only.
func TestTableSlotReuse(t *testing.T) {
	tbl := BuildTable([]Filter{DstSocketFilter(10, 35), DstSocketFilter(10, 36)})
	tbl = tbl.Remove(0)
	tbl, slot := tbl.Insert(DstSocketFilter(10, 37))
	if slot != 0 {
		t.Fatalf("freed slot not reused: got %d", slot)
	}
	mk := func(lo byte) []byte {
		pkt := make([]byte, 32)
		pkt[3] = byte(PupEtherType)
		pkt[17] = lo
		return pkt
	}
	if got := tbl.Match(mk(37)); len(got) != 1 || got[0] != 0 {
		t.Fatalf("recycled slot 0 does not match socket 37: %v", got)
	}
	if got := tbl.Match(mk(35)); len(got) != 0 {
		t.Fatalf("removed filter still matches: %v", got)
	}
	if got := tbl.Match(mk(36)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("slot 1 disturbed: %v", got)
	}
}
