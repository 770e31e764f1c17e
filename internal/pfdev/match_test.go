package pfdev

import (
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/sim"
)

// portIDs extracts the port-id sequence of a match result.
func portIDs(ports []*Port) []int {
	ids := make([]int, len(ports))
	for i, p := range ports {
		ids[i] = p.id
	}
	return ids
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEqualPriorityTieDelivery pins the documented §3.2 delivery rule
// in both evaluation paths: a non-copy-all accept ends the scan (later
// filters, even at the same priority, do not see the packet; the first
// accepting port in scan order wins the tie), while a copy-all accept
// lets the packet continue to every later filter.
func TestEqualPriorityTieDelivery(t *testing.T) {
	r := newRig(t, Options{})
	var pA, pB, pC *Port
	r.s.Spawn(r.hb, "setup", func(p *sim.Proc) {
		pA = r.db.Open(p)
		pA.SetFilter(p, socketFilter(10, 35))
		pB = r.db.Open(p)
		pB.SetFilter(p, socketFilter(10, 35))
		pC = r.db.Open(p)
		pC.SetFilter(p, socketFilter(5, 35))
	})
	r.s.Run(0)
	probe := pupTo(2, 1, 1, 35)

	check := func(stage string, want []int) {
		t.Helper()
		lin, _ := r.db.linearMatch(probe, nil)
		tab, _ := r.db.tableMatch(probe, nil)
		if !sameIDs(portIDs(lin), want) {
			t.Errorf("%s: linearMatch delivered to %v, want %v", stage, portIDs(lin), want)
		}
		if !sameIDs(portIDs(tab), portIDs(lin)) {
			t.Errorf("%s: tableMatch delivered to %v, linear to %v", stage, portIDs(tab), portIDs(lin))
		}
	}

	// All non-copy-all at priorities 10,10,5: only the first tied
	// accepting port receives the packet.
	check("no copy-all", []int{pA.id})

	// First port copy-all: the packet continues to its equal-priority
	// peer, whose non-copy-all accept then stops the scan before the
	// lower-priority port.
	pA.copyAll = true
	r.db.table = nil
	check("A copy-all", []int{pA.id, pB.id})

	// Both tied ports copy-all: the packet falls through to the
	// lower-priority filter too.
	pB.copyAll = true
	r.db.table = nil
	check("A+B copy-all", []int{pA.id, pB.id, pC.id})
}

// TestReorderKeepsTableValid pins the v2 contract that replaced the
// old rebuild-on-reorder rule: busy-first reordering (§3.2) permutes
// equal-priority ports, and because the device — not the table —
// drives the scan order, the published table stays valid (same
// pointer, zero rebuild work) while equal-priority ties immediately
// resolve in the new order, identically to the linear scan.
func TestReorderKeepsTableValid(t *testing.T) {
	r := newRig(t, Options{Reorder: true, ReorderEvery: 4})
	var pA, pB *Port
	r.s.Spawn(r.hb, "setup", func(p *sim.Proc) {
		pA = r.db.Open(p)
		pA.SetFilter(p, socketFilter(10, 35))
		pB = r.db.Open(p)
		pB.SetFilter(p, socketFilter(10, 35))
	})
	r.s.Run(0)
	probe := pupTo(2, 1, 1, 35)

	// Prime the table in the original open order: the tie goes to pA.
	if tab, _ := r.db.tableMatch(probe, nil); !sameIDs(portIDs(tab), []int{pA.id}) {
		t.Fatalf("pre-reorder table delivered to %v, want %v", portIDs(tab), []int{pA.id})
	}

	// Make pB the busier port and reorder: the scan order is now
	// [pB, pA].  The table must survive untouched — no rebuild, no
	// patch — yet ties follow the new order.
	prev := r.db.table
	builds, patches, work := r.db.TableBuilds, r.db.TablePatches, r.db.TableWork()
	pB.matches = 100
	pA.matches = 1
	r.db.Reorder()
	if r.db.table != prev {
		t.Error("reorder replaced the decision table; scan order should not live in it")
	}
	lin, _ := r.db.linearMatch(probe, nil)
	tab, _ := r.db.tableMatch(probe, nil)
	if !sameIDs(portIDs(lin), []int{pB.id}) {
		t.Errorf("post-reorder linear tie went to %v, want busy port %v", portIDs(lin), []int{pB.id})
	}
	if !sameIDs(portIDs(tab), portIDs(lin)) {
		t.Errorf("post-reorder tableMatch delivered to %v, linear to %v", portIDs(tab), portIDs(lin))
	}
	if r.db.TableBuilds != builds || r.db.TablePatches != patches || r.db.TableWork() != work {
		t.Errorf("reorder charged table work: builds %d->%d patches %d->%d work %d->%d",
			builds, r.db.TableBuilds, patches, r.db.TablePatches, work, r.db.TableWork())
	}
}

// TestTableMatchAttribution is the regression test for table-mode cost
// accounting: the decision-tree walk charges its real path depth (not
// a flat 4) and the work is attributed to the accepting ports, so
// per-port FilterInstrs statistics are non-zero in EvalTable mode and
// sum to the host counter.
func TestTableMatchAttribution(t *testing.T) {
	r := newRig(t, Options{Mode: EvalTable})
	var tree, fallback *Port
	r.s.Spawn(r.hb, "setup", func(p *sim.Proc) {
		tree = r.db.Open(p)
		tree.SetFilter(p, socketFilter(10, 35))
		tree.SetCopyAll(p, true)
		// OR is outside the decision-table shape, so this port takes
		// the linear-fallback path inside the merged match.
		fallback = r.db.Open(p)
		fallback.SetFilter(p, filter.Filter{
			Priority: 5,
			Program:  filter.NewBuilder().PushOne().PushOne().Or().MustProgram(),
		})
	})
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		port := r.da.Open(p)
		port.SetFilter(p, socketFilter(10, 99))
		p.Sleep(time.Millisecond)
		for i := 0; i < 5; i++ {
			port.Write(p, pupTo(2, 1, 1, 35))
		}
	})
	r.s.Run(0)

	ts, fs := tree.Stats(), fallback.Stats()
	if ts.Matched != 5 || fs.Matched != 5 {
		t.Fatalf("matched = %d/%d, want 5/5", ts.Matched, fs.Matched)
	}
	if ts.FilterInstrs == 0 {
		t.Error("tree-matched port has zero FilterInstrs in table mode")
	}
	if fs.FilterInstrs == 0 {
		t.Error("fallback port has zero FilterInstrs in table mode")
	}
	if got, want := r.hb.Counters.FilterInstrs, ts.FilterInstrs+fs.FilterInstrs; got != want {
		t.Errorf("host FilterInstrs = %d, want the per-port sum %d", got, want)
	}
}
