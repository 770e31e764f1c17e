package pfdev

import (
	"testing"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/vtime"
)

// scanWorld is one host with one device, driven synchronously: control
// operations run in a process to completion, frames go straight to the
// device's receive handler and the event loop drains before the next
// step — so churn never races a delivery.
type scanWorld struct {
	s    *sim.Sim
	host *sim.Host
	d    *Device
}

func newScanWorld(opt Options) *scanWorld {
	s := sim.New(vtime.DefaultCosts())
	host := s.NewHost("a")
	nic := ethersim.New(s, ethersim.Ether3Mb).Attach(host, 1)
	return &scanWorld{s: s, host: host, d: Attach(nic, nil, opt)}
}

func (w *scanWorld) ctl(fn func(p *sim.Proc)) {
	w.s.Spawn(w.host, "ctl", fn)
	w.s.Run(0)
}

func (w *scanWorld) deliver(frame []byte) {
	w.d.inputSpanned(frame, 0)
	w.s.Run(0)
}

const scanBase = 0x1000 // first socket of openSocketPorts' population

// openSocketPorts opens n ports, port i bound to the tree-resident Pup
// socket filter for scanBase+i at priority 10.
func (w *scanWorld) openSocketPorts(t testing.TB, n int) []*Port {
	t.Helper()
	ports := make([]*Port, n)
	w.ctl(func(p *sim.Proc) {
		for i := range ports {
			ports[i] = w.d.Open(p)
			if err := ports[i].SetFilter(p, socketFilter(10, uint32(scanBase+i))); err != nil {
				t.Errorf("setfilter %d: %v", i, err)
			}
		}
	})
	return ports
}

// open opens one more port on f.
func (w *scanWorld) open(t testing.TB, f filter.Filter, copyAll bool) {
	t.Helper()
	w.ctl(func(p *sim.Proc) {
		port := w.d.Open(p)
		port.SetCopyAll(p, copyAll)
		if err := port.SetFilter(p, f); err != nil {
			t.Error(err)
		}
	})
}

// The table-mode scan is O(accepts): with the governor off it reaches
// only the ports the decision table names — tree accepts and the
// fallbacks ahead of the stopping accept — however many ports are open.
func TestTableScanVisitsOnlyCandidates(t *testing.T) {
	w := newScanWorld(Options{Mode: EvalTable})
	const n, k, f = 1024, 3, 5
	ports := w.openSocketPorts(t, n)
	hit, miss := pupTo(1, 2, 1, scanBase+n/2), pupTo(1, 2, 1, scanBase-1)
	check := func(what string, frame []byte, want uint64) {
		t.Helper()
		before := w.d.ScanVisits()
		w.deliver(frame)
		if got := w.d.ScanVisits() - before; got != want {
			t.Errorf("%s: scan visited %d ports, want %d", what, got, want)
		}
	}
	check("tree-only miss", miss, 0)
	check("tree-only hit", hit, 1)

	for i := 0; i < k; i++ { // copy-all monitors above everything
		w.open(t, filter.Filter{Priority: uint8(20 + i)}, true)
	}
	check("monitors, miss", miss, k)
	check("monitors + terminal port", hit, k+1)

	for i := 0; i < f; i++ { // fallbacks between the monitors and the accept
		w.open(t, orSocketFilter(15, 1, 2), false)
	}
	check("fallbacks ahead of the accept", hit, k+f+1)

	for i := 0; i < f; i++ { // fallbacks behind the accept are never reached
		w.open(t, orSocketFilter(5, 1, 2), false)
	}
	check("fallbacks behind the accept", hit, k+f+1)
	check("every fallback, miss", miss, k+2*f)

	if got := ports[n/2].Matches(); got != 4 {
		t.Errorf("terminal port matched %d frames, want 4", got)
	}
}

// With the governor on, admission is decided at each reached port, so
// the scan still walks d.ports: a miss reaches every open port.
func TestTableScanGovernorWalksAllPorts(t *testing.T) {
	w := newScanWorld(Options{Mode: EvalTable, Gov: GovConfig{Enabled: true}})
	const n = 64
	w.openSocketPorts(t, n)
	w.deliver(pupTo(1, 2, 1, scanBase-1))
	if got := w.d.ScanVisits(); got != n {
		t.Fatalf("governed miss visited %d ports, want all %d", got, n)
	}
}

// TestTableReceivePathAllocationFree is TestReceivePathAllocationFree
// for table mode at 1024 ports: tree walk, scan set, rank sort and
// delivery allocate nothing per frame once warm.
func TestTableReceivePathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	w := newScanWorld(Options{Mode: EvalTable})
	const n = 1024
	port := w.openSocketPorts(t, n)[n/2]
	w.open(t, orSocketFilter(15, 1, 2), false)
	w.ctl(func(p *sim.Proc) { port.SetQueueLimit(p, 1<<16) })
	hit, miss := pupTo(1, 2, 1, scanBase+n/2), pupTo(1, 2, 1, scanBase-1)
	deliver := func(frame []byte, want int) {
		w.deliver(frame)
		if port.Len() != want {
			t.Fatalf("queue depth %d after input, want %d", port.Len(), want)
		}
		port.popFront(want)
	}
	for i := 0; i < 64; i++ {
		deliver(hit, 1)
	}
	deliver(miss, 0)
	if a := testing.AllocsPerRun(200, func() { deliver(hit, 1) }); a != 0 {
		t.Errorf("matched table receive path allocates %.1f/packet, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { deliver(miss, 0) }); a != 0 {
		t.Errorf("dropped table receive path allocates %.1f/packet, want 0", a)
	}
}
