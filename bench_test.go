package repro

// One benchmark per paper table and figure (driving the virtual-time
// experiments in internal/bench and reporting the headline metric),
// plus real-nanosecond microbenchmarks of the filter engine itself —
// the numbers a downstream Go user of this library cares about.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The virtual-time benches report custom metrics (vms/pkt = virtual
// milliseconds per packet, vKB/s = virtual kilobytes per second) so
// the paper's units survive into the benchmark output.

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/live"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/vmtp"
)

// --- Real-time microbenchmarks of the filter engine -----------------------

// benchPacket is an accepted Pup packet for figure 3-9's filter.
func benchPacket(socket uint32) []byte {
	pkt := pup.Packet{Type: 1, Dst: pup.PortAddr{Net: 1, Host: 2, Socket: socket}}
	payload, _ := pkt.Marshal()
	return ethersim.Ether3Mb.Encode(2, 1, ethersim.EtherTypePup3Mb, payload)
}

func BenchmarkInterpretChecked(b *testing.B) {
	prog := filter.Fig38PupTypeRange().Program
	pkt := benchPacket(35)
	pkt[7] = 50 // PupType in range
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !filter.Run(prog, pkt).Accept {
			b.Fatal("reject")
		}
	}
}

func BenchmarkInterpretCompiled(b *testing.B) {
	fp, err := filter.CompileFlat(filter.Fig38PupTypeRange().Program, filter.ValidateOptions{}, filter.Env{})
	if err != nil {
		b.Fatal(err)
	}
	pkt := benchPacket(35)
	pkt[7] = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !fp.Run(pkt).Accept {
			b.Fatal("reject")
		}
	}
}

func BenchmarkShortCircuitMiss(b *testing.B) {
	prog := filter.Fig39PupSocket().Program
	pkt := benchPacket(36) // wrong socket: 2 instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if filter.Run(prog, pkt).Accept {
			b.Fatal("accept")
		}
	}
}

// BenchmarkFilterSet20Linear vs ...Table: the §7 decision-table claim
// in real nanoseconds — 20 active filters, matching the last one.
func filterSet20() []filter.Filter {
	fs := make([]filter.Filter, 20)
	for i := range fs {
		fs[i] = filter.DstSocketFilter(10, uint32(0x100+i))
	}
	return fs
}

func BenchmarkFilterSet20Linear(b *testing.B) {
	fs := filterSet20()
	fps := make([]*filter.FlatProg, len(fs))
	for i, f := range fs {
		fp, err := filter.CompileFlat(f.Program, filter.ValidateOptions{}, filter.Env{})
		if err != nil {
			b.Fatal(err)
		}
		fps[i] = fp
	}
	pkt := benchPacket(0x100 + 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit := -1
		for j, fp := range fps {
			if fp.Run(pkt).Accept {
				hit = j
				break
			}
		}
		if hit != 19 {
			b.Fatal("wrong match")
		}
	}
}

func BenchmarkFilterSet20Table(b *testing.B) {
	tbl := filter.BuildTable(filterSet20())
	pkt := benchPacket(0x100 + 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.MatchBest(pkt) != 19 {
			b.Fatal("wrong match")
		}
	}
}

// BenchmarkLiveInput is the live device's receive path — the §3.2
// match, then enqueue — in the checked interpreter's linear scan and in
// table mode, against the port count: a hit is queued on the
// last-opened port (drained every 32 frames), a miss is a kernel drop.
// The linear scan evaluates every filter up to the hit; the table's
// scan index keeps both cases flat in the number of open ports.
// reads/op is the device's wall-clock readings per frame, the drains'
// one per 32 hits included.
func BenchmarkLiveInput(b *testing.B) {
	for _, c := range []struct {
		mode  string
		eval  pfdev.EvalMode
		ports int
	}{{"checked", pfdev.EvalChecked, 64}, {"table", pfdev.EvalTable, 64}, {"table", pfdev.EvalTable, 1024}} {
		clk := &countingClock{Clock: clock.NewWall()}
		d := live.NewDevice(live.Options{Link: ethersim.Ether3Mb, Mode: c.eval, Clock: clk})
		var target *live.Port
		for i := 0; i < c.ports; i++ {
			target = d.Open()
			if err := target.SetFilter(filter.DstSocketFilter(10, uint32(0x100+i))); err != nil {
				b.Fatal(err)
			}
		}
		for _, f := range []struct {
			name  string
			frame []byte
		}{{"hit", benchPacket(uint32(0x100 + c.ports - 1))}, {"miss", benchPacket(0x99)}} {
			b.Run(c.mode+"/ports="+strconv.Itoa(c.ports)+"/"+f.name, func(b *testing.B) {
				b.ReportAllocs()
				clk.reads = 0
				for i := 0; i < b.N; i++ {
					d.Input(f.frame)
					if i%32 == 31 {
						target.ReadBatch(0, -1)
					}
				}
				b.ReportMetric(float64(clk.reads)/float64(b.N), "reads/op")
				target.ReadBatch(0, -1)
			})
		}
		d.Close()
	}
}

// BenchmarkLiveChurn is one port churn on a live device — open, bind a
// cold socket filter, close — beside ports open ports, in the checked
// interpreter's linear scan and in table mode: §3's "a new filter can
// be bound at any time, at a cost comparable to that of receiving a
// packet" (compare BenchmarkLiveInput).  In table mode the churn
// patches the decision table in and out.
func BenchmarkLiveChurn(b *testing.B) {
	for _, c := range []struct {
		mode string
		eval pfdev.EvalMode
	}{{"checked", pfdev.EvalChecked}, {"table", pfdev.EvalTable}} {
		for _, ports := range []int{64, 1024} {
			b.Run(c.mode+"/ports="+strconv.Itoa(ports), func(b *testing.B) {
				d := live.NewDevice(live.Options{Link: ethersim.Ether3Mb, Mode: c.eval})
				defer d.Close()
				for i := 0; i < ports; i++ {
					if err := d.Open().SetFilter(filter.DstSocketFilter(10, uint32(0x100+i))); err != nil {
						b.Fatal(err)
					}
				}
				cold := make([]filter.Filter, 64)
				for i := range cold {
					cold[i] = filter.DstSocketFilter(10, uint32(0x8000+i))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := d.Open()
					if err := p.SetFilter(cold[i%len(cold)]); err != nil {
						b.Fatal(err)
					}
					p.Close()
				}
			})
		}
	}
}

// countingClock counts the readings taken of the clock it wraps.
type countingClock struct {
	clock.Clock
	reads int
}

func (c *countingClock) Now() time.Duration {
	c.reads++
	return c.Clock.Now()
}

func BenchmarkPairPredicate(b *testing.B) {
	pred := filter.PairPredicate{
		{Word: 8, Value: 0x123},
		{Word: 7, Value: 0},
		{Word: 1, Value: 2},
	}
	pkt := benchPacket(0x123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pred.Match(pkt) {
			b.Fatal("reject")
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	prog := filter.Fig38PupTypeRange().Program
	for i := 0; i < b.N; i++ {
		if _, err := filter.Validate(prog, filter.ValidateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		filter.DstSocketFilter(10, uint32(i))
	}
}

func BenchmarkPupMarshal(b *testing.B) {
	pkt := pup.Packet{Type: 1, ID: 7, Data: make([]byte, 128), Checksummed: true}
	b.SetBytes(int64(pup.HeaderLen + 128 + pup.ChecksumLen))
	for i := 0; i < b.N; i++ {
		if _, err := pkt.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMTPMarshal(b *testing.B) {
	h := vmtp.Header{DstPort: 500, TransID: 9, Kind: vmtp.KindRequest, Count: 1}
	data := make([]byte, 256)
	b.SetBytes(int64(vmtp.HeaderLen + 256))
	for i := 0; i < b.N; i++ {
		vmtp.Marshal(h, data)
	}
}

// --- Virtual-time experiments, one per paper table/figure -----------------

// cellMS parses "12.34 mSec" (or a bare number) from a table cell.
func cellMS(b *testing.B, cell string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
	if err != nil {
		b.Fatalf("bad cell %q", cell)
	}
	return v
}

// reportTable re-runs a bench experiment b.N times and reports the
// chosen cell as a custom metric.
func reportTable(b *testing.B, run func() bench.Table, row, col int, metric string) {
	var last float64
	for i := 0; i < b.N; i++ {
		tb := run()
		last = cellMS(b, tb.Rows[row][col])
	}
	b.ReportMetric(last, metric)
	b.ReportMetric(0, "ns/op") // wall time is not the quantity of interest
}

func BenchmarkFig2Demux(b *testing.B) {
	reportTable(b, bench.Fig21DemuxCounts, 1, 1, "vswitches/pkt")
}

func BenchmarkFig23DomainCrossing(b *testing.B) {
	reportTable(b, bench.Fig23DomainCrossings, 0, 1, "vcrossings/op")
}

func BenchmarkFig34Batching(b *testing.B) {
	reportTable(b, bench.Fig34Batching, 1, 1, "vsyscalls/pkt")
}

func BenchmarkTable61Send(b *testing.B) {
	reportTable(b, bench.Table61Send, 0, 1, "vms/pkt")
}

func BenchmarkTable62VMTPSmall(b *testing.B) {
	reportTable(b, bench.Table62VMTPSmall, 0, 1, "vms/op")
}

func BenchmarkTable63VMTPBulk(b *testing.B) {
	reportTable(b, bench.Table63VMTPBulk, 0, 1, "vKB/s")
}

func BenchmarkTable64Batching(b *testing.B) {
	reportTable(b, bench.Table64Batching, 0, 1, "vKB/s")
}

func BenchmarkTable65UserDemux(b *testing.B) {
	reportTable(b, bench.Table65UserDemux, 1, 2, "vKB/s")
}

func BenchmarkTable66Stream(b *testing.B) {
	reportTable(b, bench.Table66Stream, 0, 1, "vKB/s")
}

func BenchmarkTable67Telnet(b *testing.B) {
	reportTable(b, bench.Table67Telnet, 0, 3, "vchars/s")
}

func BenchmarkTable68RecvCost(b *testing.B) {
	reportTable(b, bench.Table68RecvCost, 0, 1, "vms/pkt")
}

func BenchmarkTable69RecvBatch(b *testing.B) {
	reportTable(b, bench.Table69RecvBatch, 0, 1, "vms/pkt")
}

func BenchmarkTable610FilterLen(b *testing.B) {
	reportTable(b, bench.Table610FilterLen, 3, 1, "vms/pkt-21instr")
}

func BenchmarkSec61Profile(b *testing.B) {
	reportTable(b, bench.Sec61Profile, 0, 1, "vms/pkt")
}

func BenchmarkSec65BreakEven(b *testing.B) {
	reportTable(b, bench.Sec65BreakEven, 3, 2, "vms/pkt-20filters")
}

func BenchmarkAblationEvalModes(b *testing.B) {
	reportTable(b, bench.AblationEvalModes, 3, 1, "vms/pkt-table")
}

func BenchmarkAblationPriorityOrder(b *testing.B) {
	reportTable(b, bench.AblationPriorityOrder, 2, 1, "vfilters/pkt")
}

func BenchmarkWideMachineSocket(b *testing.B) {
	prog := filter.WideSocketFilter(0x123)
	pkt := benchPacket(0x123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !filter.RunWide(prog, pkt).Accept {
			b.Fatal("reject")
		}
	}
}

func BenchmarkNarrowMachineSocket(b *testing.B) {
	prog := filter.DstSocketFilter(10, 0x123).Program
	pkt := benchPacket(0x123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !filter.Run(prog, pkt).Accept {
			b.Fatal("reject")
		}
	}
}
