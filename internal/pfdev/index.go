package pfdev

// The state the §3.2 demultiplexing rule keeps per port and per device,
// shared by the simulated device and package live's wall-clock device:
// Binding is one port's bound filter (compiled per evaluation mode, its
// place in the scan order and the decision table, its counters and its
// governor bucket), and TableIndex is the device's scan order plus the
// published decision table with its slot→port scan index.
// TableIndex.Match is the one §3.2 match loop per scan kind; it returns
// a Tally of the work done, which the simulated device prices in
// virtual CPU and the live one ignores.  Each device embeds these and
// the port queue (PortQueue, queue.go) and keeps only its own clock,
// locking and blocking reads.

import (
	"slices"
	"time"

	"repro/internal/filter"
	"repro/internal/trace"
)

// bindCfg is the device-wide half of a binding: how filters are
// validated, compiled and run, and whether the governor prices them.
type bindCfg struct {
	mode EvalMode
	env  filter.Env
	ext  bool
	gov  bool
}

// Binding is one port's filter state.  Both devices' Port types embed
// it.  The fields every linear-scan visit touches come first, so a
// visit stays within a cache line or two of the port.
type Binding struct {
	prog    filter.Program
	cfg     bindCfg
	id      int
	copyAll bool
	matches uint64 // packets accepted (for busy-first reordering)
	instrs  uint64 // filter instruction units charged to this port
	// applyBurst is the coalesced burst that last paid this port's
	// fixed FilterApply setup in a linear scan.
	applyBurst uint64

	// slot is the port's stable slot in the published decision table,
	// -1 while not resident (no filter bound, quarantined out, or the
	// table not yet built).  rank and treeHit belong to the scan index;
	// tableActive is the governor standing baked into the table.
	slot        int
	rank        int
	treeHit     uint64
	tableActive bool
	priority    uint8
	// fp is prog compiled to flat register code.  EvalFast and
	// EvalCompiled run it for every packet and differ only in how Eval
	// prices the run.  EvalTable compiles it only under the governor,
	// and runs it for a quarantine-exit transition packet (the port is
	// admitted again before the re-inserted filter is visible in the
	// match's table snapshot), at exactly the cost the table's own
	// fallback path would charge; there it is nil when the program fails
	// table-mode validation, and the filter matches nothing — same as in
	// the table.  An ungoverned table port is always in the table while
	// bound, so nothing would read it.
	fp *filter.FlatProg

	PortGov
}

// compile does the bind-time work of the device's evaluation mode:
// EvalFast and EvalCompiled validate and compile the program to flat
// code, governed EvalTable compiles the flat code for transition
// packets.
func (b *Binding) compile(f filter.Filter) error {
	switch b.cfg.mode {
	case EvalFast, EvalCompiled:
		fp, err := filter.CompileFlat(f.Program, filter.ValidateOptions{Extensions: b.cfg.ext}, b.cfg.env)
		if err != nil {
			return err
		}
		b.fp = fp
	case EvalTable:
		// The merged table validates on insert; a program that fails
		// table-mode validation matches nothing rather than erroring.
		if b.cfg.gov {
			b.fp, _ = filter.CompileFlat(f.Program, filter.ValidateOptions{}, filter.Env{})
		}
	default:
		// The checked interpreter accepts anything and fails per
		// packet, exactly like the original driver.
	}
	return nil
}

// Eval applies the port's filter to a frame in a linear scan, charges
// the port its cost and counts an accept.  The cost unit is one
// *checked* interpreter step; the two §7 strategies run the same flat
// code and are priced as the paper proposes them: ahead-of-time
// validation removes the per-instruction validity/bounds/stack checks
// (~40% of the inner loop, charged per executed word), and compiling
// to machine code skips instruction decode entirely (~1/3 the cost of
// the whole program).
func (b *Binding) Eval(frame []byte) (accept bool, instrs int) {
	switch b.cfg.mode {
	case EvalFast:
		r := b.fp.Run(frame)
		accept, instrs = r.Accept, (r.Instrs*3+4)/5
	case EvalCompiled:
		accept, instrs = b.fp.Run(frame).Accept, (b.fp.Info().Instrs+2)/3
	default:
		var r filter.Result
		if b.cfg.ext {
			r = filter.RunExt(b.prog, frame, b.cfg.env)
		} else {
			r = filter.Run(b.prog, frame)
		}
		accept, instrs = r.Accept, r.Instrs
	}
	b.Charge(instrs)
	if accept {
		b.matches++
	}
	return accept, instrs
}

// Charge debits units of evaluation work to the port: its instruction
// count always, and its token bucket when the governor is on.  In
// linear modes the charge never exceeds the pre-admitted bound; in
// table mode a port's attributed share of a deep shared walk may
// briefly drive the bucket negative, which simply delays its
// re-admission.
func (b *Binding) Charge(units int) {
	b.instrs += uint64(units)
	if b.cfg.gov {
		b.govTokens -= float64(units)
		b.fuelSpent += uint64(units)
	}
}

// ID returns the port's device-unique id.
func (b *Binding) ID() int { return b.id }

// SetCopyAll sets whether a packet this port accepts also continues to
// lower-priority filters (§3.2).
func (b *Binding) SetCopyAll(on bool) { b.copyAll = on }

// Matches returns how many packets this port's filter has accepted.
func (b *Binding) Matches() uint64 { return b.matches }

// Priority returns the bound filter's priority.
func (b *Binding) Priority() uint8 { return b.priority }

// FilterStats returns the statistics block with the fields the binding
// owns filled in: priority, match and instruction counts, governor
// accounting.  The device fills in the rest.
func (b *Binding) FilterStats() PortStats {
	return PortStats{
		ID:              b.id,
		Priority:        b.priority,
		Matched:         b.matches,
		FilterInstrs:    b.instrs,
		FuelSpent:       b.fuelSpent,
		Quarantines:     b.quarantines,
		QuarantineSkips: b.quarSkips,
	}
}

// TableIndex is a device's scan order and decision-table state.  P is
// the device's port handle; every port is kept next to its Binding, so
// the index reaches port state without a call through P.
//
// table is the published merged evaluator (EvalTable mode).  It is
// immutable: open/close/setfilter/quarantine churn patches it with
// filter.Table.Insert/Remove and swaps the pointer, so a match pass
// that snapshotted the old pointer finishes on a consistent table while
// the new one is already published — the RCU discipline that keeps
// matching stall-free under churn.  nil means "no table built yet": the
// first bind builds one, and a match before it (or after a crash)
// builds an empty one.
//
// The scan index is what lets a governor-off table match visit only the
// ports the table names instead of walking every port.  slotPort maps
// the published table's slots to their ports (valid whenever table is
// non-nil; patched with it).  Binding.rank is the port's index in the
// scan order, always exact: AddPort sets it, swap moves it with the
// port and DropPort renumbers the tail it shifts, so finding a port
// costs nothing and a match never renumbers.  matchSeq stamps the
// ports the current match's tree walk accepted (Binding.treeHit).
// scanVisits counts ports the table scan reached (tests only).
type TableIndex[P any] struct {
	cfg bindCfg
	gov *GovConfig

	ports  []P        // sorted: priority desc, busy-first within priority
	binds  []*Binding // binds[i] is ports[i]'s
	nextID int

	table      *filter.Table
	slotPort   []P
	slotBind   []*Binding
	matchSeq   uint64
	scanVisits uint64
	// tableBurst is the coalesced burst that last paid the table walk's
	// fixed FilterApply setup.
	tableBurst uint64

	slotScratch []int
	scanScratch []P
	bindScratch []*Binding
	treeScratch []*Binding

	// Table-maintenance accounting (deterministic units from
	// filter.Table.Work): TableBuilds counts from-scratch builds,
	// TablePatches incremental insert/remove patches, and tableWork the
	// cumulative construction work — the churn benchmark's maintenance
	// cost.
	TableBuilds  uint64
	TablePatches uint64
	tableWork    uint64
}

// Setup configures the index before the first port opens: the
// evaluation mode, the §7 extensions switch and filter environment, and
// the governor (gov must stay valid for the index's lifetime).
func (x *TableIndex[P]) Setup(mode EvalMode, ext bool, env filter.Env, gov *GovConfig) {
	x.cfg = bindCfg{mode: mode, env: env, ext: ext, gov: gov.Enabled}
	x.gov = gov
}

// AddPort numbers a newly opened port and appends it to the scan
// order.  Its bucket starts full at now; rebinding a filter
// deliberately does not refill it, so a hostile port cannot launder its
// debt through SetFilter.
func (x *TableIndex[P]) AddPort(p P, b *Binding, now time.Duration) {
	b.cfg = x.cfg
	b.id = x.nextID
	x.nextID++
	b.slot = -1
	b.tableActive = true
	if x.cfg.gov {
		b.govTokens = float64(x.gov.Burst)
		b.govRefill = now
	}
	b.rank = len(x.binds)
	x.ports = append(x.ports, p)
	x.binds = append(x.binds, b)
	x.sortPort(b.rank)
}

// DropPort removes a closed port from the scan order and patches its
// filter out of the published table.
func (x *TableIndex[P]) DropPort(b *Binding) {
	if i := x.index(b); i >= 0 {
		x.ports = slices.Delete(x.ports, i, i+1)
		x.binds = slices.Delete(x.binds, i, i+1)
		for ; i < len(x.binds); i++ {
			x.binds[i].rank = i
		}
	}
	x.tableRemovePort(b)
}

// index returns b's index in the scan order, or -1 for a port no longer
// in it (a pfdev crash drops every port without renumbering them).
func (x *TableIndex[P]) index(b *Binding) int {
	if b.rank < len(x.binds) && x.binds[b.rank] == b {
		return b.rank
	}
	return -1
}

// Ports returns the scan order (shared; do not modify).
func (x *TableIndex[P]) Ports() []P { return x.ports }

// Bind binds f to a port — "a new filter can be bound at any time, at
// a cost comparable to that of receiving a packet" (§3).  The
// evaluation mode's validation or compilation happens here, at bind
// time, not per packet; on error the old filter stays bound.  Then the
// old filter is patched out of the published table and the new one in
// (a quarantined port stays out until forgiven, and so does a port no
// longer open).
func (x *TableIndex[P]) Bind(p P, b *Binding, f filter.Filter, open bool) error {
	if err := b.compile(f); err != nil {
		return err
	}
	x.tableRemovePort(b)
	b.prog = f.Program.Clone()
	b.priority = f.Priority
	if x.cfg.gov {
		b.govBound = govBoundFor(x.cfg.mode, b.prog, filter.ValidateOptions{Extensions: x.cfg.ext})
	}
	if i := x.index(b); i >= 0 {
		x.sortPort(i)
	}
	if open && (!x.cfg.gov || b.tableActive) {
		x.tableInsertPort(p, b)
	}
	return nil
}

// Match is one §3.2 match pass: the caller's clock reading, the
// coalesced burst being matched (0 outside a burst) and where
// FilterEval traces go, and on return the Tally of the work done.
type Match struct {
	Now    time.Duration
	Burst  uint64
	Tracer *trace.Tracer
	Host   string
	Tally
}

// Tally is what a match pass did, in the units the simulated device
// prices (§6.1): filters applied, the fixed FilterApply setups still
// owed after burst amortization, and instruction units interpreted plus
// decision-tree edges walked.  QuarSkip reports that a quarantined
// filter was skipped, so a no-match outcome is the governor's doing
// (DropQuota).
type Tally struct {
	Applied  int
	Setups   int
	Units    int
	QuarSkip bool
}

// Match applies the §3.2 rule to frame (figure 4-1): the bound filters
// in scan order — priority descending, busy-first within a priority —
// with the governor admitting each at the moment it is reached, until
// the first accepting port that is not copy-all.  It appends the
// accepting ports to dst and fills m.Tally.  The evaluation mode picks
// the scan: every filter in turn, or the decision table naming the
// candidates.
func (x *TableIndex[P]) Match(frame []byte, dst []P, m *Match) []P {
	m.Tally = Tally{}
	if x.cfg.mode == EvalTable {
		return x.tableMatch(frame, dst, m)
	}
	return x.linearMatch(frame, dst, m)
}

// linearMatch runs every bound filter in scan order.  A quarantined
// filter is skipped outright — no setup, no instruction charges, no
// chance to match.  Within one coalesced burst a port's FilterApply
// setup is owed once and amortized over the burst's frames.
func (x *TableIndex[P]) linearMatch(frame []byte, dst []P, m *Match) []P {
	accepted, gov, amortized := dst, x.cfg.gov, 0
	for i, b := range x.binds {
		if b.prog == nil {
			continue
		}
		if gov && !b.Admit(m.Now, x.gov) {
			m.QuarSkip = true
			continue
		}
		m.Applied++
		if m.Burst != 0 {
			if b.applyBurst == m.Burst {
				amortized++
			} else {
				b.applyBurst = m.Burst
			}
		}
		accept, instrs := b.Eval(frame)
		m.Units += instrs
		if m.Tracer != nil {
			m.Tracer.FilterEval(m.Now, m.Host, b.id, instrs, accept)
		}
		if !accept {
			continue
		}
		accepted = append(accepted, x.ports[i])
		if !b.copyAll {
			// A non-copy-all accept ends the scan: later filters — even
			// at the same priority — do not see the packet.  Priority
			// ties resolve deterministically to the first accepting
			// port in the current scan order, which is what makes the
			// §3.2 busy-first reordering pay off.  A copy-all accept
			// instead lets the packet continue to every later filter,
			// which is how monitors coexist with the monitored.
			break
		}
	}
	m.Setups = m.Applied - amortized
	return accepted
}

// tableMatch uses the merged decision table.  The table answers "which
// filters can accept this frame" (one tree walk plus lazily evaluated
// flat-code fallbacks), while the scan runs in the same order and stops
// by the same rule as linearMatch.  Scan order therefore never lives
// inside the table, which is what lets Reorder and sortPort leave the
// table untouched.  The match's snapshot of the published table stays
// consistent while governor transitions publish patched tables for the
// next frame.
//
// Work: one FilterApply setup for the walk (amortized over a coalesced
// burst like the linear per-port setup) plus one unit per decision-tree
// node whose packet word was examined and per instruction the reached
// fallbacks interpreted (fallbacks past the stopping port never run).
// Fallbacks charge their own runs; the walk's edges are split evenly
// across the reached tree-accepting ports (remainder to the first;
// port -1 in the trace when the walk benefited no reached port).  The
// table is nil here only before the first bind or after a crash, when
// no filter is bound, so the empty table built then costs no work.
func (x *TableIndex[P]) tableMatch(frame []byte, dst []P, m *Match) []P {
	if x.table == nil {
		x.rebuildTable()
	}
	tbl := x.table
	slots, tree, edges := tbl.Candidates(frame, x.slotScratch)
	x.slotScratch = slots
	x.matchSeq++
	for _, slot := range slots[:tree] {
		x.slotBind[slot].treeHit = x.matchSeq
	}
	// With the governor off only the table's candidates (tree accepts
	// and fallbacks) can be affected by the frame, so the scan visits
	// just those, at O(accepts + fallbacks) instead of O(ports).  With
	// it on, admission is decided at the moment each port is reached,
	// so every port is visited.
	visit, binds := x.ports, x.binds
	if !x.cfg.gov {
		visit, binds = x.scanSet(slots)
	}
	m.Units = edges

	accepted, treeAccepts := dst, x.treeScratch[:0]
	for i, p := range visit {
		b := binds[i]
		x.scanVisits++
		if b.prog == nil {
			continue
		}
		// The slot this port held in the snapshot, before any transition
		// this step performs on it (slots are stable under patching, so
		// other ports' transitions cannot move it).
		slot := b.slot
		if x.cfg.gov {
			if !b.Admit(m.Now, x.gov) {
				// Denied: its filter is patched out of the published
				// table, unreachable like a closed port's.
				if b.tableActive {
					b.tableActive = false
					x.tableRemovePort(b)
				}
				m.QuarSkip = true
				continue
			}
			if !b.tableActive {
				// Forgiven: patched back in.  The snapshot cannot answer
				// for this transition packet, so the port's own flat code
				// evaluates it.
				b.tableActive = true
				x.tableInsertPort(p, b)
			}
		}
		accept, fp := false, b.fp
		if slot >= 0 {
			if fp = tbl.Fallback(slot); fp == nil {
				accept = b.treeHit == x.matchSeq
			}
		}
		if fp != nil {
			r := fp.Run(frame)
			accept = r.Accept
			b.Charge(r.Instrs)
			m.Units += r.Instrs
			if m.Tracer != nil {
				m.Tracer.FilterEval(m.Now, m.Host, b.id, r.Instrs, accept)
			}
		} else if accept {
			treeAccepts = append(treeAccepts, b)
		}
		if !accept {
			continue
		}
		b.matches++
		accepted = append(accepted, p)
		if !b.copyAll {
			break
		}
	}

	switch {
	case len(treeAccepts) > 0:
		share := edges / len(treeAccepts)
		extra := edges % len(treeAccepts)
		for k, b := range treeAccepts {
			in := share
			if k < extra {
				in++
			}
			b.Charge(in)
			if m.Tracer != nil {
				m.Tracer.FilterEval(m.Now, m.Host, b.id, in, true)
			}
		}
	case edges > 0:
		if m.Tracer != nil {
			m.Tracer.FilterEval(m.Now, m.Host, -1, edges, false)
		}
	}
	x.treeScratch = treeAccepts[:0]

	m.Applied = 1
	if m.Burst == 0 || x.tableBurst != m.Burst {
		m.Setups = 1
		x.tableBurst = m.Burst
	}
	return accepted
}

// scanSet sorts a match's candidate slots into scan order, in place,
// and maps them to their ports and bindings.
func (x *TableIndex[P]) scanSet(slots []int) ([]P, []*Binding) {
	slices.SortFunc(slots, func(a, b int) int { return x.slotBind[a].rank - x.slotBind[b].rank })
	set, binds := x.scanScratch[:0], x.bindScratch[:0]
	for _, slot := range slots {
		set = append(set, x.slotPort[slot])
		binds = append(binds, x.slotBind[slot])
	}
	x.scanScratch, x.bindScratch = set[:0], binds[:0]
	return set, binds
}

// rebuildTable compiles the full filter set from scratch: at the first
// bind (setfilter time), or an empty table at a match before it or
// after a crash.
func (x *TableIndex[P]) rebuildTable() {
	var filters []filter.Filter
	var ports []P
	var binds []*Binding
	for i, b := range x.binds {
		b.slot = -1
		if b.prog == nil || (x.cfg.gov && !b.tableActive) {
			continue
		}
		filters = append(filters, filter.Filter{Priority: b.priority, Program: b.prog})
		ports = append(ports, x.ports[i])
		binds = append(binds, b)
	}
	x.table = filter.BuildTable(filters)
	for i, b := range binds {
		b.slot = i
	}
	x.slotPort, x.slotBind = ports, binds
	x.TableBuilds++
	x.tableWork += uint64(x.table.Work())
}

// tableInsertPort patches the port's current filter into the published
// table.  The first bind builds the table eagerly: all construction
// happens at setfilter/close time, so the match path never compiles a
// bound filter.
func (x *TableIndex[P]) tableInsertPort(p P, b *Binding) {
	if x.cfg.mode != EvalTable || b.prog == nil {
		return
	}
	if x.table == nil {
		x.rebuildTable()
		return
	}
	before := x.table.Work()
	nt, slot := x.table.Insert(filter.Filter{Priority: b.priority, Program: b.prog})
	x.table = nt
	b.slot = slot
	if slot == len(x.slotPort) {
		x.slotPort = append(x.slotPort, p)
		x.slotBind = append(x.slotBind, b)
	} else {
		x.slotPort[slot], x.slotBind[slot] = p, b
	}
	x.TablePatches++
	x.tableWork += uint64(nt.Work() - before)
}

// tableRemovePort patches the port's filter out of the published table.
func (x *TableIndex[P]) tableRemovePort(b *Binding) {
	if x.cfg.mode != EvalTable || x.table == nil || b.slot < 0 {
		return
	}
	before := x.table.Work()
	x.table = x.table.Remove(b.slot)
	var none P
	x.slotPort[b.slot], x.slotBind[b.slot] = none, nil
	b.slot = -1
	x.TablePatches++
	x.tableWork += uint64(x.table.Work() - before)
}

// TableWork returns the cumulative decision-table construction work in
// deterministic filter.Table.Work units — the churn benchmark's
// maintenance-cost metric.
func (x *TableIndex[P]) TableWork() uint64 { return x.tableWork }

// ScanVisits returns how many ports table-mode matches have reached so
// far — the counter behind the O(accepts) scan tests.
func (x *TableIndex[P]) ScanVisits() uint64 { return x.scanVisits }

// sortPort moves the port at index i of the scan order to its place
// after its priority changed.  The order is priority descending,
// preserving the relative order within equal priorities (which Reorder
// adjusts by busyness), and every other port is already in place, so
// the port moves only past strictly lower priorities (promoted) or
// strictly higher ones (demoted) — the stable insertion sort's result,
// at the cost of the distance moved.  The decision table is order-free
// — the device drives the scan itself — so sorting does not touch it.
func (x *TableIndex[P]) sortPort(i int) {
	for ; i > 0 && x.binds[i-1].priority < x.binds[i].priority; i-- {
		x.swap(i-1, i)
	}
	for ; i+1 < len(x.binds) && x.binds[i+1].priority > x.binds[i].priority; i++ {
		x.swap(i, i+1)
	}
}

// Reorder moves busier filters earlier within each equal-priority
// group (§3.2: "the interpreter may occasionally reorder such filters
// to place the busier ones first").  Equal-priority ties are resolved
// by the device's own scan in both evaluation modes, so the decision
// table stays valid across reorders.
func (x *TableIndex[P]) Reorder() {
	for i := 1; i < len(x.binds); i++ {
		for j := i; j > 0 &&
			x.binds[j-1].priority == x.binds[j].priority &&
			x.binds[j-1].matches < x.binds[j].matches; j-- {
			x.swap(j-1, j)
		}
	}
}

func (x *TableIndex[P]) swap(i, j int) {
	x.ports[i], x.ports[j] = x.ports[j], x.ports[i]
	x.binds[i], x.binds[j] = x.binds[j], x.binds[i]
	x.binds[i].rank, x.binds[j].rank = i, j
}
