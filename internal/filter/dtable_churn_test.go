package filter

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// socketFilters is a port population the way the devices see one:
// filter i is figure 3-9's socket filter for socket 0x100+i, so the
// tree is type word → high socket word → one node of fanout n on the
// low socket word.
func socketFilters(n int) []Filter {
	fs := make([]Filter, n)
	for i := range fs {
		fs[i] = DstSocketFilter(10, uint32(0x100+i))
	}
	return fs
}

// coldFilters are socket filters no population filter shares a branch
// page with: what a churning port binds and unbinds.
func coldFilters() []Filter {
	fs := make([]Filter, 64)
	for i := range fs {
		fs[i] = DstSocketFilter(10, uint32(0x8000+i))
	}
	return fs
}

// churnScript applies steps seeded patches to tbl — an Insert of a
// churnFilter draw two times in three, otherwise the Remove of a
// uniformly drawn live slot — calling after with every table it
// publishes, and returns the last.
func churnScript(r *rand.Rand, tbl *Table, steps int, after func(step int, tbl *Table)) *Table {
	var live []int
	for s := 0; s < tbl.Slots(); s++ {
		if tbl.Live(s) {
			live = append(live, s)
		}
	}
	for step := 0; step < steps; step++ {
		if len(live) == 0 || r.Intn(3) > 0 {
			var slot int
			tbl, slot = tbl.Insert(churnFilter(r))
			live = append(live, slot)
		} else {
			i := r.Intn(len(live))
			tbl = tbl.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if after != nil {
			after(step, tbl)
		}
	}
	return tbl
}

// observe renders everything a table answers about pkts and its slots:
// Candidates, MatchStats, and per slot Live and the Fallback pointer.
func observe(tbl *Table, pkts [][]byte) []string {
	var out []string
	for _, p := range pkts {
		slots, tree, edges := tbl.Candidates(p, nil)
		out = append(out, fmt.Sprint("candidates ", slots, tree, edges))
		m := tbl.MatchStats(p)
		out = append(out, fmt.Sprintf("match %v %d %+v", m.Idxs, m.Edges, m.Linear))
	}
	for s := 0; s < tbl.Slots(); s++ {
		out = append(out, fmt.Sprintf("slot %d %v %p", s, tbl.Live(s), tbl.Fallback(s)))
	}
	return out
}

// TestTableSnapshotsImmutable pins the atomic-swap contract where
// structural sharing can break it: a table, once published, answers
// every query exactly as it did then, however many patches were made
// from it and its successors since.  Every 10th table of a seeded
// churn over a 2,048-socket population is observed when published and
// again after the whole script has run.
func TestTableSnapshotsImmutable(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	base := socketFilters(2048)
	var pkts [][]byte
	for i := 0; i < 32; i++ {
		pkts = append(pkts, hitPacket(base[r.Intn(len(base))]), churnPacket(r))
	}
	type snapshot struct {
		tbl  *Table
		seen []string
	}
	var kept []snapshot
	churnScript(r, BuildTable(base), 1000, func(step int, tbl *Table) {
		if step%10 == 0 {
			kept = append(kept, snapshot{tbl, observe(tbl, pkts)})
		}
	})
	for i, s := range kept {
		now := observe(s.tbl, pkts)
		for j := range now {
			if now[j] != s.seen[j] {
				t.Fatalf("snapshot %d (step %d) changed after publication:\n was %s\n now %s",
					i, 10*i, s.seen[j], now[j])
			}
		}
	}
}

// FuzzTableChurn decodes its input into a script of Inserts, Removes
// and packets, and after every operation holds the patched table to a
// fresh BuildTable over the same slot layout — identical MatchStats
// verdicts and fallback runs, identical Candidates as sets — and every
// live slot's verdict to the checked interpreter.
func FuzzTableChurn(f *testing.F) {
	// Insert socket 0x0123 and hit it; insert a two-word tree shape and
	// a fallback; remove slot 0, insert socket 0x18000 into it and hit
	// that; then a one-byte packet.
	f.Add([]byte{
		0, 2, 4, 0, 0x01, 0x23, 3, 0, 0,
		1, 1, 5, 1, 0, 3, 1, 2, 0, 0, 2, 40,
		2, 0, 0, 3, 4, 1, 0x80, 0x00, 3, 0, 0,
		3, 1, 0xff,
	})
	// Accept-all, reject-all and invalid filters, removes of live,
	// dead and out-of-range slots.
	f.Add([]byte{0, 0, 0, 1, 1, 1, 0, 2, 3, 2, 0, 2, 0, 2, 9, 1, 3, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			// Each op rebuilds the reference table: keep an input's
			// cost quadratic in a bounded length.
			script = script[:256]
		}
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		dead := Filter{Program: Program{MkInstr(NOPUSH, AND)}}
		tbl := BuildTable(nil)
		var ref []Filter
		pkt := []byte{0, 0, 0, PupEtherType}
		for op := 0; len(script) > 0; op++ {
			switch next() % 4 {
			case 0, 1:
				flt := fuzzFilter(next)
				prev := tbl
				var slot int
				tbl, slot = tbl.Insert(flt)
				switch {
				case slot == len(ref):
					ref = append(ref, flt)
				case slot < len(ref) && !prev.Live(slot):
					ref[slot] = flt
				default:
					t.Fatalf("op %d: Insert chose slot %d of %d, not a free one", op, slot, len(ref))
				}
			case 2:
				slot := int(next()) % (len(ref) + 1)
				tbl = tbl.Remove(slot)
				if slot < len(ref) {
					ref[slot] = dead
				}
			case 3:
				if k := next(); k%2 == 0 && len(ref) > 0 {
					if p := hitPacket(ref[int(next())%len(ref)]); p != nil {
						pkt = p
					}
				} else {
					pkt = make([]byte, int(k)%24)
					for i := range pkt {
						pkt[i] = next()
					}
				}
			}
			checkAgainstFresh(t, op, tbl, ref, pkt)
		}
	})
}

// fuzzFilter decodes one filter of churnFilter's shapes, with socket
// values over the whole 16-bit range.
func fuzzFilter(next func() byte) Filter {
	pri := next() % 4
	switch next() % 6 {
	case 0:
		return Filter{Program: NewBuilder().AcceptAll().MustProgram(), Priority: pri}
	case 1:
		return Filter{Program: NewBuilder().RejectAll().MustProgram(), Priority: pri}
	case 2:
		return Filter{Program: NewBuilder().PushWord(8).PushLit(uint16(next())).Op(GT).MustProgram(), Priority: pri}
	case 3:
		return Filter{Program: Program{MkInstr(NOPUSH, AND)}, Priority: pri}
	case 4:
		hi := uint32(next() % 2)
		lo := uint32(next())<<8 | uint32(next())
		return DstSocketFilter(pri, hi<<16|lo)
	default:
		b := NewBuilder().WordEQ(1, PupEtherType)
		for n := 1 + next()%2; n > 0; n-- {
			b = b.WordEQ(7+int(next()%2), uint16(next()%4)).And()
		}
		return Filter{Program: b.MustProgram(), Priority: pri}
	}
}

func checkAgainstFresh(t *testing.T, op int, tbl *Table, ref []Filter, pkt []byte) {
	t.Helper()
	if tbl.Slots() != len(ref) {
		t.Fatalf("op %d: %d slots, want %d", op, tbl.Slots(), len(ref))
	}
	fresh := BuildTable(ref)
	gotC, gotTree, _ := tbl.Candidates(pkt, nil)
	wantC, wantTree, _ := fresh.Candidates(pkt, nil)
	sorted := func(s []int) []int { s = slices.Clone(s); slices.Sort(s); return s }
	if gotTree != wantTree || !slices.Equal(gotC[gotTree:], wantC[wantTree:]) ||
		!slices.Equal(sorted(gotC[:gotTree]), sorted(wantC[:wantTree])) {
		t.Fatalf("op %d: candidates %v (tree %d), fresh %v (tree %d)", op, gotC, gotTree, wantC, wantTree)
	}
	got, want := tbl.MatchStats(pkt), fresh.MatchStats(pkt)
	if !slices.Equal(got.Idxs, want.Idxs) || !slices.Equal(got.Linear, want.Linear) {
		t.Fatalf("op %d: match %v %+v, fresh %v %+v", op, got.Idxs, got.Linear, want.Idxs, want.Linear)
	}
	for slot, flt := range ref {
		if !tbl.Live(slot) {
			continue
		}
		wantAcc := false
		if _, err := Validate(flt.Program, ValidateOptions{}); err == nil {
			wantAcc = Run(flt.Program, pkt).Accept
		}
		if slices.Contains(got.Idxs, slot) != wantAcc {
			t.Fatalf("op %d slot %d: table says %v, interpreter %v", op, slot, !wantAcc, wantAcc)
		}
	}
}

// BenchmarkTableChurn times one Insert+Remove pair of a cold socket
// filter against populations of socket filters: the cost of binding
// and closing one port, which must not grow with the population.
func BenchmarkTableChurn(b *testing.B) {
	cold := coldFilters()
	for _, n := range []int{64, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("filters=%d", n), func(b *testing.B) {
			tbl := BuildTable(socketFilters(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nt, slot := tbl.Insert(cold[i%len(cold)])
				tbl = nt.Remove(slot)
			}
		})
	}
}

// TestTableChurnAllocsBounded pins O(path), not O(population), in
// bytes: an Insert+Remove pair over 4,096 socket filters may allocate
// at most twice what it does over 64.
func TestTableChurnAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	small, large := churnBytesPerPair(64), churnBytesPerPair(4096)
	t.Logf("bytes per Insert+Remove: %.0f at 64 filters, %.0f at 4096", small, large)
	if large > 2*small {
		t.Fatalf("Insert+Remove allocates %.0f B at 4096 filters, > 2x the %.0f B at 64", large, small)
	}
}

// TestTableChurnAllocBytesPinned pins the bytes of an Insert+Remove
// pair over 4,096 socket filters: the slot vector is a radix tree of
// record pointers in which every dead slot shares one record, so a
// patch copies one 128-byte node per level below the root and at most
// one record.  A slot layout that copied a whole page of records per
// patch (3 KB) read about 10 KB.
func TestTableChurnAllocBytesPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	const limit = 6 << 10
	if b := churnBytesPerPair(4096); b > limit {
		t.Fatalf("Insert+Remove allocates %.0f B at 4096 filters, want <= %d", b, limit)
	}
}

// churnBytesPerPair is the least, over three runs, of the bytes one
// Insert+Remove pair allocates over n socket filters.
func churnBytesPerPair(n int) float64 {
	const pairs = 256
	cold := coldFilters()
	tbl := BuildTable(socketFilters(n))
	least := 0.0
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			nt, slot := tbl.Insert(cold[i%len(cold)])
			tbl = nt.Remove(slot)
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / pairs; run == 0 || b < least {
			least = b
		}
	}
	return least
}

// TestTableWorkPinned pins the deterministic work units of a fixed
// build plus churn script to the figure the map-based table produced:
// Work counts logical branches, whatever stores them, and the
// simulator's rebuild stall and the exp-churn tables are Work times an
// instruction cost.
func TestTableWorkPinned(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tbl := churnScript(r, BuildTable(socketFilters(1024)), 2000, nil)
	const want = 55784
	if got := tbl.Work(); got != want {
		t.Fatalf("Work() = %d after the pinned script, want %d", got, want)
	}
}

// TestTableChurnAllocCount pins the allocations of an Insert+Remove
// pair of a cold socket filter.  A copied node carries its branch map,
// a map's single page and a page's single child are held inline, and
// the slot vector copies one radix node per level below the table's
// own root, so the count follows the path and the radix height (five
// levels once a 65,536-filter table appends).  Allocating per map
// level, page array and condition list, plus a slot page and its
// directory per patch, reads over 50.
func TestTableChurnAllocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	cold := coldFilters()
	for _, c := range []struct{ n, limit int }{{1024, 20}, {65536, 30}} {
		n := c.n
		tbl := BuildTable(socketFilters(n))
		i := 0
		a := testing.AllocsPerRun(200, func() {
			nt, slot := tbl.Insert(cold[i%len(cold)])
			tbl = nt.Remove(slot)
			i++
		})
		if a > float64(c.limit) {
			t.Errorf("Insert+Remove makes %.1f allocations at %d filters, want <= %d", a, n, c.limit)
		}
	}
}

// TestTableChurnAllocBytesLarge pins the bytes of an Insert+Remove pair
// over 65,536 socket filters, where a slot vector that copies a page
// directory per patch reads about 30 KB.
func TestTableChurnAllocBytesLarge(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	const limit = 16 << 10
	if b := churnBytesPerPair(65536); b > limit {
		t.Fatalf("Insert+Remove allocates %.0f B at 65536 filters, want <= %d", b, limit)
	}
}

// TestTableChurnRetainedAlloc bounds the heap a long-churned table
// keeps alive.  No allocation may hold both a node or array a later
// patch replaces and one that outlives it: carving a patch's whole
// path from shared slabs keeps every replaced copy, and through it
// every older table version, reachable — about 2.9 KB per slot after
// this script, against 0.2 KB.
func TestTableChurnRetainedAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tbl := churnScript(rand.New(rand.NewSource(5)), BuildTable(socketFilters(2048)), 10000, nil)
	kept := float64(heap()-before) / float64(tbl.Slots())
	runtime.KeepAlive(tbl)
	if kept > 1024 {
		t.Fatalf("a churned table keeps %.0f B per slot alive, want <= 1024", kept)
	}
}

// TestExtractAllocOnce pins Extract at one allocation, its result: the
// symbolic stack and the condition lists live in fixed scratch.
func TestExtractAllocOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	prog := DstSocketFilter(10, 35).Program
	if a := testing.AllocsPerRun(100, func() { Extract(prog) }); a > 1 {
		t.Fatalf("Extract of a socket filter makes %.1f allocations, want <= 1", a)
	}
}

// TestSlotVecRadix runs seeded set/at sequences against a plain-slice
// model at sizes on both sides of every radix level boundary, appending
// from empty and patching vectors newSlotVec built, each patch on a
// copy as a table makes one, and checks after each script that every
// older vector still reads its old values.
func TestSlotVecRadix(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	recs := make([]slotState, 64)
	for i := range recs {
		recs[i].priority = uint8(i)
	}
	type version struct {
		v     slotVec
		model []*slotState
	}
	with := func(v slotVec, i int, st *slotState) slotVec {
		v.set(i, st)
		return v
	}
	check := func(what string, ver version) {
		t.Helper()
		if ver.v.n != len(ver.model) {
			t.Fatalf("%s: n = %d, want %d", what, ver.v.n, len(ver.model))
		}
		for i, want := range ver.model {
			if got := ver.v.at(i); got != want {
				t.Fatalf("%s: slot %d reads %p, want %p", what, i, got, want)
			}
		}
	}
	for _, size := range []int{1, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097} {
		sts := make([]slotState, size)
		built := version{v: newSlotVec(sts)}
		for i := range sts {
			built.model = append(built.model, &sts[i])
		}
		check(fmt.Sprintf("newSlotVec(%d)", size), built)

		// Append from empty up to size, keeping every 64th version.
		cur := version{}
		var kept []version
		for i := 0; i < size; i++ {
			st := &recs[r.Intn(len(recs))]
			cur = version{with(cur.v, i, st), append(slices.Clip(cur.model), st)}
			if i%64 == 0 || i == size-1 {
				kept = append(kept, cur)
			}
		}
		// Then patch random slots, of both the appended and the built
		// vector, and append one more.
		for _, start := range []version{cur, built} {
			cur = start
			for k := 0; k < 200; k++ {
				i, st := r.Intn(size), &recs[r.Intn(len(recs))]
				model := slices.Clone(cur.model)
				model[i] = st
				cur = version{with(cur.v, i, st), model}
				if k%20 == 0 {
					kept = append(kept, cur)
				}
			}
			cur = version{with(cur.v, size, deadSlot), append(slices.Clip(cur.model), deadSlot)}
			kept = append(kept, cur, start)
		}
		for j, ver := range kept {
			check(fmt.Sprintf("size %d, version %d", size, j), ver)
		}
	}
}
