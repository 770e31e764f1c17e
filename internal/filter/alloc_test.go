package filter

import (
	"encoding/binary"
	"testing"
)

// allocPkt builds a raw packet whose words satisfy DstSocketFilter's
// conjunction for the given socket: word 1 = PupEtherType, words 7/8 =
// the socket halves.
func allocPkt(socket uint32) []byte {
	pkt := make([]byte, 64)
	binary.BigEndian.PutUint16(pkt[2:], PupEtherType)
	binary.BigEndian.PutUint16(pkt[14:], uint16(socket>>16))
	binary.BigEndian.PutUint16(pkt[16:], uint16(socket))
	return pkt
}

// allocFilters is a small mixed population: tree-extractable
// conjunctions plus an OR fallback, so Table.Match exercises both the
// tree walk and the linear fallback path.
func allocFilters() []Filter {
	fs := []Filter{
		DstSocketFilter(10, 35),
		DstSocketFilter(10, 36),
		DstSocketFilter(10, 37),
	}
	fs = append(fs, Filter{Priority: 5, Program: NewBuilder().
		PushWord(8).PushLit(40).Op(EQ).
		PushWord(8).PushLit(41).Op(EQ).
		Or().MustProgram()})
	return fs
}

// TestFilterHotPathsAllocationFree pins the per-packet filter paths at
// zero heap allocations in steady state: the checked interpreter, the
// flat IR, and the merged decision table, on both accepting
// and rejecting packets.
func TestFilterHotPathsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	prog := DstSocketFilter(10, 35).Program
	hit, miss := allocPkt(35), allocPkt(99)

	if a := testing.AllocsPerRun(200, func() {
		Run(prog, hit)
		Run(prog, miss)
	}); a != 0 {
		t.Errorf("filter.Run allocates %.1f/run, want 0", a)
	}

	fp, err := CompileFlat(prog, ValidateOptions{}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		fp.Run(hit)
		fp.Run(miss)
	}); a != 0 {
		t.Errorf("FlatProg.Run allocates %.1f/run, want 0", a)
	}

	tbl := BuildTable(allocFilters())
	tbl.Match(hit) // warm the scratch slices
	tbl.Match(miss)
	if a := testing.AllocsPerRun(200, func() {
		tbl.Match(hit)
		tbl.Match(miss)
	}); a != 0 {
		t.Errorf("Table.Match allocates %.1f/run, want 0", a)
	}
}

func BenchmarkFilterRun(b *testing.B) {
	prog := DstSocketFilter(10, 35).Program
	pkt := allocPkt(35)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(prog, pkt)
	}
}

func BenchmarkCompiledRun(b *testing.B) {
	fp, err := CompileFlat(DstSocketFilter(10, 35).Program, ValidateOptions{}, Env{})
	if err != nil {
		b.Fatal(err)
	}
	pkt := allocPkt(35)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp.Run(pkt)
	}
}

func BenchmarkTableMatch(b *testing.B) {
	tbl := BuildTable(allocFilters())
	pkt := allocPkt(35)
	tbl.Match(pkt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Match(pkt)
	}
}
