package live

// Scan-index equivalence pack: the table-mode scan that visits only the
// ports the decision table names must be indistinguishable from the
// scans it replaced.  Each pinned seed replays one workload.ScanScript
// — 256 ports mixing tree filters, fallbacks, inert filters, copy-all
// monitors and priority ties, busy-first reorder on, rebinds and
// close/reopens between frames — through three devices, and
// workload.CheckScanIndex holds the scan index (EvalTable, governor
// off) against the linear scan's verdicts (EvalChecked) and the full
// walk's accounting (EvalTable under generousGov).

import (
	"math/rand"
	"testing"

	"repro/internal/ethersim"
	"repro/internal/parsim"
	"repro/internal/pfdev"
	"repro/internal/trace"
	"repro/internal/workload"
)

// generousGov never denies a port and never sheds a frame: it only
// selects the governed arm of the scan.
var generousGov = pfdev.GovConfig{Enabled: true, Rate: 1e15, Burst: 1 << 30, AdmissionHigh: 1 << 30}

func replayScanScript(t *testing.T, script []workload.ScanOp, opt Options) workload.ScanOutcome {
	rec := &trace.Recorder{}
	tr := trace.New()
	tr.SetSink(rec)
	opt.Link, opt.Tracer = ethersim.Ether3Mb, tr
	opt.Reorder, opt.ReorderEvery = true, 8
	d := NewDevice(opt)

	var out workload.ScanOutcome
	slots := map[int]*Port{}
	retire := func(slot int) {
		port := slots[slot]
		st := port.Stats()
		log := workload.ScanPortLog{ID: st.ID, Matched: st.Matched, Instrs: st.FilterInstrs, Dropped: st.Dropped}
		pkts, _ := port.ReadBatch(0, -1)
		for _, pkt := range pkts {
			log.Seqs = append(log.Seqs, workload.ScanSeq(pkt.Data))
		}
		out.Ports = append(out.Ports, log)
		port.Close()
		delete(slots, slot)
	}
	for _, op := range script {
		switch op.Kind {
		case workload.ScanOpen:
			slots[op.Slot] = d.Open()
			slots[op.Slot].SetCopyAll(op.CopyAll)
			fallthrough
		case workload.ScanSetFilter:
			if err := slots[op.Slot].SetFilter(op.Filter); err != nil {
				t.Errorf("setfilter slot %d: %v", op.Slot, err)
			}
		case workload.ScanClose:
			retire(op.Slot)
		case workload.ScanFrame:
			d.Input(op.Frame)
		}
	}
	out.KernelDrops = d.KernelDrops()
	out.Visits = d.ScanVisits()
	for slot := 0; len(slots) > 0; slot++ {
		if slots[slot] != nil {
			retire(slot)
		}
	}
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
	results := parsim.Map(trials, 0, func(i int) []string {
		script := workload.ScanScript(seeds[i], ports, frames)
		return workload.CheckScanIndex(
			replayScanScript(t, script, Options{Mode: pfdev.EvalChecked}),
			replayScanScript(t, script, Options{Mode: pfdev.EvalTable, Gov: generousGov}),
			replayScanScript(t, script, Options{Mode: pfdev.EvalTable}))
	})
	for i, bad := range results {
		for _, msg := range bad {
			t.Errorf("seed %d: %s", seeds[i], msg)
		}
	}
}
