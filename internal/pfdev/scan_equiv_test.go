package pfdev_test

// Scan-index equivalence pack: the table-mode scan that visits only the
// ports the decision table names must be indistinguishable from the
// scans it replaced.  Each pinned seed replays one workload.ScanScript
// — 256 ports mixing tree filters, fallbacks, inert filters, copy-all
// monitors and priority ties, busy-first reorder on, rebinds and
// close/reopens between frames — over the simulated Ethernet into three
// devices, with interrupt coalescing off and on, and
// workload.CheckScanIndex holds the scan index (EvalTable, governor
// off) against the linear scan's verdicts (EvalChecked) and the full
// walk's accounting and virtual-cost counters (EvalTable under
// generousGov).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ethersim"
	"repro/internal/parsim"
	"repro/internal/pfdev"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// generousGov never denies a port and never sheds a frame: it only
// selects the governed arm of the scan.
var generousGov = pfdev.GovConfig{Enabled: true, Rate: 1e15, Burst: 1 << 30, AdmissionHigh: 1 << 30}

// replayScanScript runs the script against a fresh device, sending
// runs of up to burst consecutive frames back to back and letting the
// simulation go quiet before the next step, so churn never races a
// delivery on any of the (differently loaded) receivers.
func replayScanScript(t *testing.T, script []workload.ScanOp, opt pfdev.Options, burst int) workload.ScanOutcome {
	rec := &trace.Recorder{}
	tr := trace.New()
	tr.SetSink(rec)
	s := sim.New(vtime.DefaultCosts())
	s.SetTracer(tr)
	net := ethersim.New(s, ethersim.Ether3Mb)
	src, recv := s.NewHost("src"), s.NewHost("recv")
	nicSrc, nicRecv := net.Attach(src, 1), net.Attach(recv, 2)
	opt.Reorder, opt.ReorderEvery = true, 8
	if burst > 1 {
		opt.CoalesceBudget, opt.CoalesceDelay = burst, 2*time.Millisecond
	}
	d := pfdev.Attach(nicRecv, nil, opt)
	run := func(host *sim.Host, fn func(p *sim.Proc)) {
		s.Spawn(host, "script", fn)
		s.Run(0)
	}

	var out workload.ScanOutcome
	slots := map[int]*pfdev.Port{}
	retire := func(p *sim.Proc, slot int) {
		port := slots[slot]
		st := port.Stats()
		log := workload.ScanPortLog{ID: st.ID, Matched: st.Matched, Instrs: st.FilterInstrs, Dropped: st.Dropped}
		port.SetTimeout(p, -1)
		for {
			pkts, err := port.ReadBatch(p)
			if err != nil {
				break
			}
			for _, pkt := range pkts {
				log.Seqs = append(log.Seqs, workload.ScanSeq(pkt.Data))
			}
		}
		out.Ports = append(out.Ports, log)
		port.Close(p)
		delete(slots, slot)
	}
	var pending [][]byte
	flush := func() {
		if len(pending) > 0 {
			run(src, func(p *sim.Proc) {
				for _, frame := range pending {
					nicSrc.Transmit(frame)
				}
			})
			pending = nil
		}
	}
	for _, op := range script {
		if op.Kind == workload.ScanFrame {
			if pending = append(pending, op.Frame); len(pending) >= burst {
				flush()
			}
			continue
		}
		flush()
		run(recv, func(p *sim.Proc) {
			switch op.Kind {
			case workload.ScanOpen:
				slots[op.Slot] = d.Open(p)
				slots[op.Slot].SetCopyAll(p, op.CopyAll)
				fallthrough
			case workload.ScanSetFilter:
				if err := slots[op.Slot].SetFilter(p, op.Filter); err != nil {
					t.Errorf("setfilter slot %d: %v", op.Slot, err)
				}
			case workload.ScanClose:
				retire(p, op.Slot)
			}
		})
	}
	flush()
	out.KernelDrops = d.KernelDrops
	out.Visits = d.ScanVisits()
	run(recv, func(p *sim.Proc) {
		for slot := 0; len(slots) > 0; slot++ {
			if slots[slot] != nil {
				retire(p, slot)
			}
		}
	})
	out.Counters = recv.Counters
	out.Evals = workload.ScanEvals(rec.Events)
	return out
}

func TestScanIndexEquivalence(t *testing.T) {
	const trials, ports, frames = 6, 256, 400
	rng := rand.New(rand.NewSource(13))
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	for _, cell := range []struct {
		name  string
		burst int
	}{{"nocoalesce", 1}, {"coalesce", 4}} {
		t.Run(cell.name, func(t *testing.T) {
			results := parsim.Map(trials, 0, func(i int) []string {
				script := workload.ScanScript(seeds[i], ports, frames)
				index := replayScanScript(t, script, pfdev.Options{Mode: pfdev.EvalTable}, cell.burst)
				bad := workload.CheckScanIndex(
					replayScanScript(t, script, pfdev.Options{Mode: pfdev.EvalChecked}, cell.burst),
					replayScanScript(t, script, pfdev.Options{Mode: pfdev.EvalTable, Gov: generousGov}, cell.burst),
					index)
				if bursts := index.Counters.Bursts; (bursts > 0) != (cell.burst > 1) {
					bad = append(bad, fmt.Sprintf("%d coalesced bursts formed with burst size %d", bursts, cell.burst))
				}
				return bad
			})
			for i, bad := range results {
				for _, msg := range bad {
					t.Errorf("seed %d: %s", seeds[i], msg)
				}
			}
		})
	}
}
