package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/parsim"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/sim"
)

// ChurnCount is the packet count per exp-churn cell; cmd/pfbench
// -churn-n overrides it so CI can smoke-test the experiment cheaply.
var ChurnCount = 40

// churnPorts is the sweep of active port populations under churn.
var churnPorts = []int{64, 256, 1024}

// churnResult is one cell: steady traffic to a hot port while decoy
// ports are rebound and cycled, under either incremental table
// maintenance or the full-rebuild baseline.  The maintenance metrics
// are deltas from after the warm-up frame, so the cold initial
// compile (paid identically by both modes) is excluded.
type churnResult struct {
	received  int
	perPacket time.Duration
	worstLat  time.Duration // worst send-to-read latency (tail under stalls)
	builds    uint64
	patches   uint64
	work      uint64        // table-construction work units under churn
	stall     time.Duration // packet-path time lost to from-scratch compiles
}

// fullRebuild is the exp-churn baseline: the decision table as it was
// kept before incremental maintenance, thrown away by every setfilter
// and close and rebuilt from scratch by the next frame, on the packet
// path.  The device itself still patches its table at syscall time;
// the baseline rides on host B as a kernel protocol that claims
// nothing, and charges the from-scratch build the frame would have
// waited on as "filter" kernel time, ahead of the device's own match.
type fullRebuild struct {
	dev     *pfdev.Device
	filters map[*pfdev.Port]filter.Filter // each open port's bound filter
	stale   bool
	builds  uint64
	work    uint64
	stall   time.Duration
}

// setFilter binds f on port and marks the table stale.
func (b *fullRebuild) setFilter(p *sim.Proc, port *pfdev.Port, f filter.Filter) {
	port.SetFilter(p, f)
	b.filters[port] = f
	b.stale = true
}

// close closes port and marks the table stale.
func (b *fullRebuild) close(p *sim.Proc, port *pfdev.Port) {
	port.Close(p)
	delete(b.filters, port)
	b.stale = true
}

// Claim rebuilds a stale table over the bound filters in scan order
// and charges its construction work at instruction rate.
func (b *fullRebuild) Claim([]byte) bool {
	if !b.stale {
		return false
	}
	b.stale = false
	var set []filter.Filter
	for _, port := range b.dev.Ports() {
		if f, ok := b.filters[port]; ok {
			set = append(set, f)
		}
	}
	work := filter.BuildTable(set).Work()
	stall := time.Duration(work) * b.dev.Host().Costs().FilterInstr
	b.builds++
	b.work += uint64(work)
	b.stall += stall
	b.dev.Host().RunKernel("filter", stall, nil)
	return false
}

// measureChurn binds nPorts tree-extractable socket filters at host B,
// paces ChurnCount frames at the hot port, and concurrently rebinds
// and open/close-cycles decoy ports between frames — one churn event
// per frame.  Under the full-rebuild baseline every event invalidates
// the table and the next frame pays a from-scratch compile on the
// packet path; under incremental maintenance each event is an
// O(depth) patch at setfilter/close time.
func measureChurn(nPorts int, full bool) churnResult {
	base := &fullRebuild{filters: make(map[*pfdev.Port]filter.Filter)}
	o := rigOptions{link: ethersim.Ether3Mb, pf: pfdev.Options{Mode: pfdev.EvalTable}}
	if full {
		o.kernB = base
	}
	r := newRig(o)
	base.dev = r.devB
	count := ChurnCount
	const hotSocket = 0x50
	// The gap must dominate a churn event's syscall time (~5 virtual
	// mSec on the VAX-era cost model) so rebinds genuinely interleave
	// with arrivals instead of draining before or after the traffic.
	const gap = 15 * time.Millisecond
	r.nicB.QueueLimit = 4 * count

	var res churnResult
	var t0, t1 time.Duration
	sendAt := make([]time.Duration, count)

	// Binding nPorts filters takes syscall time proportional to the
	// population; the sender and churner poll this flag (the universe
	// is single-threaded, so the handoff is deterministic) instead of
	// guessing the setup duration.
	ready := false
	going := false // measurement window open: churn paces with traffic
	decoys := make([]*pfdev.Port, nPorts-1)
	r.s.Spawn(r.hB, "dest", func(p *sim.Proc) {
		for i := range decoys {
			decoys[i] = r.devB.Open(p)
			base.setFilter(p, decoys[i], pup.SocketFilter(ethersim.Ether3Mb, 10, uint32(0x1000+i)))
		}
		hot := r.devB.Open(p)
		base.setFilter(p, hot, pup.SocketFilter(ethersim.Ether3Mb, 1, hotSocket))
		hot.SetQueueLimit(p, 4*count)
		// Survive the worst cell: at 1024 ports under the full-rebuild
		// baseline every frame pays a whole-population recompile stall.
		hot.SetTimeout(p, 30*time.Second)
		ready = true
		// The warm-up frame pays the cold table compile in both modes;
		// measurement starts after it.
		if _, err := hot.Read(p); err != nil {
			return
		}
		for res.received < count {
			if _, err := hot.Read(p); err != nil {
				return
			}
			// Single-port delivery is FIFO, so the i-th read is frame i.
			if lat := p.Now() - sendAt[res.received]; lat > res.worstLat {
				res.worstLat = lat
			}
			res.received++
			t1 = p.Now()
		}
	})
	r.s.Spawn(r.hB, "churn", func(p *sim.Proc) {
		// One churn event per frame, phase-shifted into the inter-frame
		// gap: rebind a decoy to a fresh socket, and every fourth event
		// close it and open a replacement — the open/close/reorder mix
		// the incremental Insert/Remove path must absorb.
		for !going {
			p.Sleep(5 * time.Millisecond)
		}
		p.Sleep(gap / 2)
		for i := 0; i < count; i++ {
			k := i % len(decoys)
			if i%4 == 3 {
				base.close(p, decoys[k])
				decoys[k] = r.devB.Open(p)
			}
			base.setFilter(p, decoys[k], pup.SocketFilter(ethersim.Ether3Mb, 10, uint32(0x2000+i)))
			p.Sleep(gap / 2)
		}
	})
	// maintenance reads the cell's table-maintenance counters: the
	// baseline's own under full rebuild, the device's otherwise (its
	// match path never compiles, so it never stalls).
	maintenance := func() (m churnResult) {
		if full {
			m.builds, m.work, m.stall = base.builds, base.work, base.stall
		} else {
			m.builds, m.patches, m.work = r.devB.TableBuilds, r.devB.TablePatches, r.devB.TableWork()
		}
		return m
	}
	var m0 churnResult
	r.s.Spawn(r.hA, "src", func(p *sim.Proc) {
		for !ready {
			p.Sleep(10 * time.Millisecond)
		}
		frame := pupFrame(1, hotSocket)
		// Warm-up: the cold whole-population compile happens here, off
		// the books, in both modes.  The sleep outlasts its stall.
		r.nicA.Transmit(frame)
		p.Sleep(500 * time.Millisecond)
		t0 = p.Now()
		m0 = maintenance()
		r.hB.ResetAccounting()
		going = true
		for i := 0; i < count; i++ {
			sendAt[i] = p.Now()
			r.nicA.Transmit(frame)
			p.Sleep(gap)
		}
	})
	r.s.Run(120 * time.Second)

	if res.received > 0 {
		res.perPacket = (t1 - t0) / time.Duration(res.received)
	}
	m := maintenance()
	res.builds = m.builds - m0.builds
	res.patches = m.patches - m0.patches
	res.work = m.work - m0.work
	res.stall = m.stall - m0.stall
	return res
}

// ExpChurn measures filter-set churn: steady traffic while ports are
// rebound, closed and reopened, comparing incremental decision-table
// maintenance against the rebuild-from-scratch baseline.  The rebuild
// baseline pays a whole-population recompile on the packet path after
// every churn event — work that grows with the port count and lands as
// per-packet stalls and tail latency — while incremental maintenance
// patches the affected subtree at setfilter/close time.
func ExpChurn() Table {
	t := Table{
		ID:    "exp-churn",
		Title: "Filter-set churn: incremental table maintenance vs full rebuild (one churn event per frame)",
		Columns: []string{"Active ports",
			"incr/pkt", "incr worst lat", "incr stall", "incr work",
			"full/pkt", "full worst lat", "full stall", "full work", "work ratio"},
		Notes: []string{
			"every frame is preceded by a setfilter rebind (every fourth a close+reopen); 'work' is deterministic table-construction units (nodes built or copied + programs compiled); 'stall' is packet-path time lost to from-scratch compiles — the rebuild-stall metric",
			"shape: incremental maintenance never stalls — patches run at setfilter/close syscall time, so per-packet cost, tail latency and stall stay flat at every population",
			"shape: the baseline's stall and worst-case latency grow with the population; at scale each whole-population recompile serializes the host, churn events queue behind the packet path, and rebuilds coarsen (fewer, bigger) — so 'full work' understates the damage the stall column shows",
			fmt.Sprintf("%d packets per cell; every cell is a deterministic universe, swept across the parsim pool", ChurnCount),
		},
	}
	type cellID struct {
		ports int
		full  bool
	}
	var cells []cellID
	for _, ports := range churnPorts {
		cells = append(cells, cellID{ports, false}, cellID{ports, true})
	}
	// Heaviest populations first so the pool never idles behind a
	// late-started 1024-port universe; results return in sweep order.
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cells[order[a]].ports > cells[order[b]].ports
	})
	permuted := parsim.Map(len(order), sweepWorkers(), func(i int) churnResult {
		return measureChurn(cells[order[i]].ports, cells[order[i]].full)
	})
	results := make([]churnResult, len(cells))
	for i, r := range permuted {
		results[order[i]] = r
	}
	for pi, ports := range churnPorts {
		incr, full := results[2*pi], results[2*pi+1]
		row := func(r churnResult) []string {
			if r.received == 0 {
				return []string{"n/a", "n/a", "n/a", "n/a"}
			}
			return []string{ms(r.perPacket), ms(r.worstLat), ms(r.stall), fmt.Sprintf("%d", r.work)}
		}
		ratio := "n/a"
		if incr.work > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(full.work)/float64(incr.work))
		}
		cells := []string{fmt.Sprintf("%d", ports)}
		cells = append(cells, row(incr)...)
		cells = append(cells, row(full)...)
		cells = append(cells, ratio)
		t.Rows = append(t.Rows, cells)
	}
	return t
}
