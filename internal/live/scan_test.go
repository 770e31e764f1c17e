package live

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/pup"
)

const scanBase = 0x1000 // first socket of openSocketPorts' population

// openSocketPorts opens n ports, port i bound to the tree-resident Pup
// socket filter for scanBase+i at priority 10.
func openSocketPorts(t testing.TB, d *Device, n int) []*Port {
	t.Helper()
	ports := make([]*Port, n)
	for i := range ports {
		ports[i] = d.Open()
		if err := ports[i].SetFilter(pup.SocketFilter(d.Link(), 10, uint32(scanBase+i))); err != nil {
			t.Fatalf("setfilter %d: %v", i, err)
		}
	}
	return ports
}

// orFilter is a filter the decision tree cannot hold (an OR), so the
// table evaluates it as a linear fallback; it accepts no Pup frame.
func orFilter(prio uint8) filter.Filter {
	return filter.Filter{Priority: prio, Program: filter.NewBuilder().
		WordEQ(1, 0xAAAA).WordEQ(1, 0xBBBB).Or().MustProgram()}
}

// The table-mode scan is O(accepts): with the governor off it reaches
// only the ports the decision table names — tree accepts and the
// fallbacks ahead of the stopping accept — however many ports are open.
func TestTableScanVisitsOnlyCandidates(t *testing.T) {
	link := ethersim.Ether10Mb
	d := NewDevice(Options{Link: link, Mode: pfdev.EvalTable})
	const n, k, f = 1024, 3, 5
	ports := openSocketPorts(t, d, n)
	hit, miss := pupFrame(t, link, scanBase+n/2), pupFrame(t, link, scanBase-1)
	check := func(what string, frame []byte, want uint64) {
		t.Helper()
		before := d.ScanVisits()
		d.Input(frame)
		if got := d.ScanVisits() - before; got != want {
			t.Errorf("%s: scan visited %d ports, want %d", what, got, want)
		}
	}
	check("tree-only miss", miss, 0)
	check("tree-only hit", hit, 1)

	for i := 0; i < k; i++ { // copy-all monitors above everything
		mon := d.Open()
		mon.SetCopyAll(true)
		if err := mon.SetFilter(filter.Filter{Priority: uint8(20 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	check("monitors, miss", miss, k)
	check("monitors + terminal port", hit, k+1)

	for i := 0; i < f; i++ { // fallbacks between the monitors and the accept
		if err := d.Open().SetFilter(orFilter(15)); err != nil {
			t.Fatal(err)
		}
	}
	check("fallbacks ahead of the accept", hit, k+f+1)

	for i := 0; i < f; i++ { // fallbacks behind the accept are never reached
		if err := d.Open().SetFilter(orFilter(5)); err != nil {
			t.Fatal(err)
		}
	}
	check("fallbacks behind the accept", hit, k+f+1)
	check("every fallback, miss", miss, k+2*f)

	if got := ports[n/2].Stats().Matched; got != 4 {
		t.Errorf("terminal port matched %d frames, want 4", got)
	}
}

// With the governor on, admission is decided at each reached port, so
// the scan still walks d.ports: a miss reaches every open port.
func TestTableScanGovernorWalksAllPorts(t *testing.T) {
	link := ethersim.Ether10Mb
	d := NewDevice(Options{Link: link, Mode: pfdev.EvalTable, Gov: pfdev.GovConfig{Enabled: true}})
	const n = 64
	openSocketPorts(t, d, n)
	d.Input(pupFrame(t, link, scanBase-1))
	if got := d.ScanVisits(); got != n {
		t.Fatalf("governed miss visited %d ports, want all %d", got, n)
	}
}

// TestInputAllocationFree pins the Input path — the match in every
// evaluation mode, with the governor off and on, and the enqueue — at
// zero heap allocations per frame, matched or not, once the scratch
// slices and the port queue are warm.
func TestInputAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	link := ethersim.Ether10Mb
	// A governor generous enough never to quarantine the ports.
	gov := pfdev.GovConfig{Enabled: true, Rate: 1e9, Burst: 1 << 30}
	for _, mode := range []pfdev.EvalMode{pfdev.EvalChecked, pfdev.EvalFast, pfdev.EvalCompiled, pfdev.EvalTable} {
		for _, g := range []pfdev.GovConfig{{}, gov} {
			t.Run(fmt.Sprintf("mode=%d/gov=%v", mode, g.Enabled), func(t *testing.T) {
				d := NewDevice(Options{Link: link, Mode: mode, Gov: g})
				const n = 1024
				port := openSocketPorts(t, d, n)[n/2]
				if err := d.Open().SetFilter(orFilter(15)); err != nil {
					t.Fatal(err)
				}
				hit, miss := pupFrame(t, link, scanBase+n/2), pupFrame(t, link, scanBase-1)
				buf := make([]Packet, 1)
				deliver := func(frame []byte, want int) {
					d.Input(frame)
					if port.Len() != want {
						t.Fatalf("queue depth %d after input, want %d", port.Len(), want)
					}
					port.TakeBatch(buf[:want], 0)
				}
				for i := 0; i < 64; i++ {
					deliver(hit, 1)
				}
				deliver(miss, 0)
				if a := testing.AllocsPerRun(200, func() { deliver(hit, 1) }); a != 0 {
					t.Errorf("matched input allocates %.1f/frame, want 0", a)
				}
				if a := testing.AllocsPerRun(200, func() { deliver(miss, 0) }); a != 0 {
					t.Errorf("unmatched input allocates %.1f/frame, want 0", a)
				}
			})
		}
	}
}

// TestTableChurnAllocBytes pins what one port churn — open, bind a cold
// socket filter, close — allocates beside 1,024 table-mode ports: the
// two decision-table patches and the port itself.  A flat compile per
// ungoverned bind and slot pages of records read about 10 KB.
func TestTableChurnAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	link := ethersim.Ether10Mb
	d := NewDevice(Options{Link: link, Mode: pfdev.EvalTable})
	defer d.Close()
	openSocketPorts(t, d, 1024)
	cold := make([]filter.Filter, 64)
	for i := range cold {
		cold[i] = pup.SocketFilter(link, 10, uint32(0x8000+i))
	}
	const churns, limit = 256, 5 << 10
	least := 0.0
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < churns; i++ {
			p := d.Open()
			if err := p.SetFilter(cold[i%len(cold)]); err != nil {
				t.Fatal(err)
			}
			p.Close()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / churns; run == 0 || b < least {
			least = b
		}
	}
	t.Logf("bytes per open+setfilter+close: %.0f", least)
	if least > limit {
		t.Fatalf("a churn allocates %.0f B beside 1024 table ports, want <= %d", least, limit)
	}
}

// TestTableChurnAllocCount pins the allocations of a port churn — open,
// SetFilter of a cold socket filter, close — beside 1,024 table ports,
// then one frame a population port accepts, so the match after each
// patch is counted too: its candidate slots go into a buffer the
// device's index owns, not a scratch each patched table starts
// without.  Allocating per tree node and slot page, plus a condition
// variable per port, reads over 55.
func TestTableChurnAllocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	link := ethersim.Ether10Mb
	d := NewDevice(Options{Link: link, Mode: pfdev.EvalTable})
	defer d.Close()
	openSocketPorts(t, d, 1024)
	cold := make([]filter.Filter, 64)
	for i := range cold {
		cold[i] = pup.SocketFilter(link, 10, uint32(0x8000+i))
	}
	hit := pupFrame(t, link, scanBase)
	i := 0
	a := testing.AllocsPerRun(256, func() {
		p := d.Open()
		if err := p.SetFilter(cold[i%len(cold)]); err != nil {
			t.Fatal(err)
		}
		p.Close()
		d.Input(hit)
		i++
	})
	if a > 24 {
		t.Fatalf("a churn and a frame make %.1f allocations beside 1024 table ports, want <= 24", a)
	}
}

// PortStats is in id order however busy-first reordering and priority
// sorting have shuffled the scan order.
func TestPortStatsIDOrderAfterReorder(t *testing.T) {
	link := ethersim.Ether10Mb
	d := NewDevice(Options{Link: link, Reorder: true, ReorderEvery: 1})
	const n = 8
	ports := openSocketPorts(t, d, n)
	if err := ports[2].SetFilter(pup.SocketFilter(link, 30, scanBase+2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d.Input(pupFrame(t, link, scanBase+n-1)) // the last-opened port becomes the busiest
	}
	d.mu.Lock()
	first, second := d.idx.Ports()[0].ID(), d.idx.Ports()[1].ID()
	d.mu.Unlock()
	if first != 2 || second != n-1 {
		t.Fatalf("scan order starts %d, %d; want the priority-30 port 2 then the busy port %d", first, second, n-1)
	}
	stats := d.PortStats()
	if len(stats) != n {
		t.Fatalf("PortStats returned %d blocks, want %d", len(stats), n)
	}
	for i, st := range stats {
		if st.ID != i {
			t.Fatalf("PortStats[%d].ID = %d; blocks must be in id order", i, st.ID)
		}
	}
}

// Port finds open ports by id and answers nil for ids that were closed
// or never opened.
func TestPortLookup(t *testing.T) {
	d := NewDevice(Options{})
	a, b, c := d.Open(), d.Open(), d.Open()
	b.Close()
	for _, tc := range []struct {
		id   int
		want *Port
	}{{a.ID(), a}, {b.ID(), nil}, {c.ID(), c}, {c.ID() + 1, nil}, {-1, nil}} {
		if got := d.Port(tc.id); got != tc.want {
			t.Errorf("Port(%d) = %v, want %v", tc.id, got, tc.want)
		}
	}
	d.Close()
	if d.Port(a.ID()) != nil || d.Port(c.ID()) != nil {
		t.Error("ports still resolvable after the device closed")
	}
}
