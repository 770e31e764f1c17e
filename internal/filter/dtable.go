package filter

// This file implements the last of §7's proposed improvements:
// "Finally, with a redesigned filter language it might be possible to
// compile the set of active filters into a decision table, which
// should provide the best possible performance."
//
// Most real filters are conjunctions of equality tests on packet words
// (the paper's figures 3-8 and 3-9 are a mask-and-range filter and a
// pure equality conjunction respectively).  Extract analyses a program
// and, when it is such a conjunction, returns the set of
// (word, value) conditions; BuildTable merges the extracted filters of
// a whole port set into one decision tree that tests each packet word
// at most once per path — the common-prefix factoring of the v2 set
// compiler, with each node's branch map providing indexed dispatch on
// the §3.1 pair-predicate demux key fields.  Filters that do not fit
// the shape (ranges, masks, indirection) fall back to flat register
// code (setir.go), so Table.Match is always exactly equivalent to
// applying every filter in priority order.
//
// v2 makes the table maintainable under churn: filters occupy stable
// slots, and Insert/Remove return a NEW table that shares every
// untouched subtree with the old one (copy-on-write along the affected
// path only).  A published table is immutable with respect to its
// filter set, which is what lets the devices swap table pointers
// atomically while in-flight matches finish on the old one.  The
// cumulative construction work (nodes built or copied, programs
// extracted or compiled) is tracked in deterministic units so the
// churn benchmark can compare incremental maintenance against full
// rebuilds without touching a wall clock.

// Cond is one equality condition: packet word Word must equal Value.
type Cond struct {
	Word  int
	Value uint16
}

// Extracted is the decision-table form of a program: the packet is
// accepted iff it contains at least MinWords whole 16-bit words and
// every condition holds.  MinWords captures word accesses that do not
// surface as conditions (a push consumed by a short-circuit operator
// that would fault on a truncated packet), keeping table evaluation
// exactly equivalent to the interpreter, which rejects a packet the
// moment any access runs past its end.
type Extracted struct {
	Conds    []Cond
	MinWords int
}

// Extract attempts to reduce a base-language program to a conjunction
// of equality conditions.  The supported shapes cover the dominant
// idioms:
//
//   - short-circuit chains:  PUSHWORD+n  PUSHLIT|CAND v   (fig. 3-9)
//   - equality trees:        PUSHWORD+n  PUSHLIT|EQ v  ... AND
//   - constant programs:     PUSHONE / PUSHZERO
//
// ok reports success.  Contradictory conjunctions (w==1 AND w==2) are
// still returned; the table simply never matches them.
func Extract(p Program) (ex Extracted, ok bool) {
	if _, err := Validate(p, ValidateOptions{}); err != nil {
		return Extracted{}, false
	}
	if len(p) == 0 {
		return Extracted{}, true // empty filter: accepts everything
	}

	// Abstract values for symbolic execution.
	type kind int
	const (
		aConst kind = iota // a known 16-bit constant
		aWord              // the value of one packet word
		aConj              // boolean: 1 iff a set of conditions holds
	)
	type aval struct {
		k     kind
		c     uint16 // for aConst
		w     int    // for aWord
		conds []Cond // for aConj
	}

	var stack []aval
	var global []Cond // conditions asserted by CAND terminators
	minWords := 0     // every accessed word must exist in the packet

	pop2 := func() (t2, t1 aval) {
		t1 = stack[len(stack)-1]
		t2 = stack[len(stack)-2]
		stack = stack[:len(stack)-2]
		return
	}
	// eqCond turns (t2 op t1) with op∈{EQ,CAND} into a condition if
	// one side is a packet word and the other a constant.
	eqCond := func(t2, t1 aval) (Cond, bool) {
		switch {
		case t2.k == aWord && t1.k == aConst:
			return Cond{Word: t2.w, Value: t1.c}, true
		case t2.k == aConst && t1.k == aWord:
			return Cond{Word: t1.w, Value: t2.c}, true
		}
		return Cond{}, false
	}

	for pc := 0; pc < len(p); pc++ {
		w := p[pc]
		a, op := w.Action(), w.Op()

		switch {
		case a == NOPUSH:
		case a == PUSHLIT:
			pc++
			stack = append(stack, aval{k: aConst, c: uint16(p[pc])})
		case a == PUSHZERO:
			stack = append(stack, aval{k: aConst, c: 0})
		case a == PUSHONE:
			stack = append(stack, aval{k: aConst, c: 1})
		case a == PUSHFFFF:
			stack = append(stack, aval{k: aConst, c: 0xFFFF})
		case a == PUSHFF00:
			stack = append(stack, aval{k: aConst, c: 0xFF00})
		case a == PUSH00FF:
			stack = append(stack, aval{k: aConst, c: 0x00FF})
		case a >= PUSHWORD:
			n := int(a - PUSHWORD)
			if n+1 > minWords {
				minWords = n + 1
			}
			stack = append(stack, aval{k: aWord, w: n})
		default:
			return Extracted{}, false // extended action: not table-compatible
		}

		if op == NOP {
			continue
		}
		t2, t1 := pop2()
		switch op {
		case EQ:
			c, isEq := eqCond(t2, t1)
			if !isEq {
				return Extracted{}, false
			}
			stack = append(stack, aval{k: aConj, conds: []Cond{c}})
		case CAND:
			c, isEq := eqCond(t2, t1)
			if !isEq {
				return Extracted{}, false
			}
			global = append(global, c)
			// CAND pushes TRUE when it continues.
			stack = append(stack, aval{k: aConj})
		case AND:
			if t2.k != aConj || t1.k != aConj {
				return Extracted{}, false
			}
			stack = append(stack, aval{k: aConj, conds: append(append([]Cond{}, t2.conds...), t1.conds...)})
		default:
			return Extracted{}, false
		}
	}

	top := stack[len(stack)-1]
	var conds []Cond
	switch top.k {
	case aConj:
		conds = append(global, top.conds...)
	case aConst:
		if top.c == 0 {
			return Extracted{}, false // reject-all: leave to linear path
		}
		conds = global
	default: // aWord: acceptance depends on a raw field value
		return Extracted{}, false
	}
	return Extracted{Conds: dedupe(conds), MinWords: minWords}, true
}

func dedupe(conds []Cond) []Cond {
	seen := make(map[Cond]bool, len(conds))
	out := conds[:0]
	for _, c := range conds {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// contradictory reports whether the conjunction contains two different
// required values for the same word — an entry that can never match.
func contradictory(conds []Cond) bool {
	for i, a := range conds {
		for _, b := range conds[i+1:] {
			if a.Word == b.Word && a.Value != b.Value {
				return true
			}
		}
	}
	return false
}

// slotKind records how one slot participates in the table.
type slotKind uint8

const (
	slotDead     slotKind = iota // removed or never assigned
	slotTree                     // extracted conjunction, in the decision tree
	slotFallback                 // flat register code, evaluated linearly
	slotInert                    // invalid or contradictory: matches nothing
)

// slotState is the per-slot maintenance record: everything Remove
// needs to patch a filter back out of the structure it was inserted
// into.
type slotState struct {
	kind     slotKind
	conds    []Cond // tree slots: the extracted conjunction
	minWords int
	fp       *FlatProg // fallback slots: the compiled program
}

// Table is a merged evaluator for a set of filters.  Filters whose
// programs reduce to equality conjunctions are compiled into one
// decision tree; the rest are compiled to flat register code and
// applied linearly.  Filters that fail even validation match nothing.
//
// A Table's filter set is immutable: Insert and Remove return a new
// Table sharing all untouched subtrees.  The per-match scratch buffers
// are not shared between tables and make a single Table value safe
// only for serialized matching (the devices guarantee this).
type Table struct {
	filters []Filter    // by slot; dead slots have a nil Program
	slots   []slotState // by slot
	free    []int       // dead slots available for reuse
	root    *tnode
	linear  []tlinear // fallback slots, ascending slot order
	scratch []int
	lin     []LinearEval
	edges   int
	work    int // cumulative deterministic construction work
}

type tlinear struct {
	idx int
	fp  *FlatProg
}

type tnode struct {
	word     int // packet word tested at this node; -1 for leaf-only
	branches map[uint16]*tnode
	wildcard *tnode    // entries that do not test this word
	accepts  []taccept // filters fully satisfied at this node
}

// taccept records an accepting filter and the packet length its
// program requires (Extracted.MinWords).
type taccept struct {
	idx      int
	minWords int
}

type tentry struct {
	idx      int
	minWords int
	conds    []Cond
}

// workNode is the deterministic cost of constructing one tree node
// with the given branch fanout: every branch is placed by evaluating
// entry conditions.
func workNode(fanout int) int { return 1 + fanout }

// workClone is the deterministic cost of copy-on-write-copying an
// existing node: the branch map is a straight pointer copy, an order
// of magnitude cheaper per entry than constructing the branches, so a
// patched path through a high-fanout node stays far cheaper than
// rebuilding it.
func workClone(fanout int) int { return 1 + fanout/16 }

// workCompile is the deterministic cost of extracting/compiling one
// program into the table.
const workCompile = 4

// BuildTable compiles the filter set from scratch.  The returned table
// matches exactly the same (packet, filter) pairs as running every
// program with Run.  Slot i holds filters[i].
func BuildTable(filters []Filter) *Table {
	t := &Table{filters: append([]Filter(nil), filters...)}
	t.slots = make([]slotState, len(filters))
	var entries []tentry
	for i, f := range filters {
		st := t.compileSlot(f)
		t.slots[i] = st
		switch st.kind {
		case slotTree:
			entries = append(entries, tentry{idx: i, minWords: st.minWords, conds: st.conds})
		case slotFallback:
			t.linear = append(t.linear, tlinear{idx: i, fp: st.fp})
		}
	}
	t.root = buildNode(entries, &t.work)
	return t
}

// compileSlot classifies and compiles one filter program, charging
// work units.
func (t *Table) compileSlot(f Filter) slotState {
	t.work += workCompile
	if ex, ok := Extract(f.Program); ok {
		if contradictory(ex.Conds) {
			return slotState{kind: slotInert}
		}
		return slotState{kind: slotTree, conds: ex.Conds, minWords: ex.MinWords}
	}
	fp, err := CompileFlat(f.Program, ValidateOptions{}, Env{})
	if err != nil {
		return slotState{kind: slotInert} // invalid program: matches nothing
	}
	return slotState{kind: slotFallback, fp: fp}
}

// buildNode recursively partitions entries by the most commonly tested
// remaining packet word.
func buildNode(entries []tentry, wk *int) *tnode {
	if len(entries) == 0 {
		return nil
	}
	n := &tnode{word: -1}

	// Entries with no remaining conditions accept here.
	var rest []tentry
	for _, e := range entries {
		if len(e.conds) == 0 {
			n.accepts = append(n.accepts, taccept{idx: e.idx, minWords: e.minWords})
		} else {
			rest = append(rest, e)
		}
	}
	if len(rest) == 0 {
		*wk += workNode(0)
		return n
	}

	// Pick the word tested by the most entries (ties: lowest word,
	// so headers are tested before payloads, which mirrors how
	// programmers order tests by selectivity in figure 3-9).
	count := make(map[int]int)
	for _, e := range rest {
		seen := make(map[int]bool)
		for _, c := range e.conds {
			if !seen[c.Word] {
				seen[c.Word] = true
				count[c.Word]++
			}
		}
	}
	best, bestN := -1, 0
	for w, k := range count {
		if k > bestN || (k == bestN && w < best) {
			best, bestN = w, k
		}
	}
	n.word = best

	byValue := make(map[uint16][]tentry)
	var wild []tentry
	for _, e := range rest {
		val, tests := uint16(0), false
		var remaining []Cond
		for _, c := range e.conds {
			if c.Word == best {
				if tests && c.Value != val {
					// Contradiction (w==a AND w==b):
					// this entry can never match.
					remaining = nil
					tests = false
					goto next
				}
				val, tests = c.Value, true
			} else {
				remaining = append(remaining, c)
			}
		}
		if tests {
			byValue[val] = append(byValue[val], tentry{idx: e.idx, minWords: e.minWords, conds: remaining})
		} else {
			wild = append(wild, e)
		}
	next:
	}
	if len(byValue) > 0 {
		n.branches = make(map[uint16]*tnode, len(byValue))
		for v, es := range byValue {
			n.branches[v] = buildNode(es, wk)
		}
	}
	n.wildcard = buildNode(wild, wk)
	*wk += workNode(len(n.branches))
	return n
}

// clone copies one node so its accepts and branch map can be modified
// without touching the shared original.  Subtrees are shared.
func (n *tnode) clone(wk *int) *tnode {
	c := &tnode{word: n.word, wildcard: n.wildcard}
	if len(n.accepts) > 0 {
		c.accepts = append(make([]taccept, 0, len(n.accepts)), n.accepts...)
	}
	if n.branches != nil {
		c.branches = make(map[uint16]*tnode, len(n.branches))
		for v, b := range n.branches {
			c.branches[v] = b
		}
	}
	*wk += workClone(len(n.branches))
	return c
}

// shallowClone copies the slot bookkeeping so the new table can be
// patched; the decision tree is shared until insert/remove copies the
// affected path.
func (t *Table) shallowClone() *Table {
	nt := &Table{
		filters: append([]Filter(nil), t.filters...),
		slots:   append([]slotState(nil), t.slots...),
		free:    append([]int(nil), t.free...),
		root:    t.root,
		linear:  append([]tlinear(nil), t.linear...),
		work:    t.work,
	}
	return nt
}

// Insert returns a new table containing f in a fresh slot, sharing
// every untouched subtree with the receiver, plus the assigned slot.
// Construction work is proportional to the affected path, not the
// filter population.
func (t *Table) Insert(f Filter) (*Table, int) {
	nt := t.shallowClone()
	var slot int
	if n := len(nt.free); n > 0 {
		slot = nt.free[n-1]
		nt.free = nt.free[:n-1]
		nt.filters[slot] = f
	} else {
		slot = len(nt.filters)
		nt.filters = append(nt.filters, f)
		nt.slots = append(nt.slots, slotState{})
	}
	st := nt.compileSlot(f)
	nt.slots[slot] = st
	switch st.kind {
	case slotTree:
		nt.root = insertEntry(nt.root, tentry{idx: slot, minWords: st.minWords, conds: st.conds}, &nt.work)
	case slotFallback:
		// Keep the fallback list in ascending slot order so the
		// evaluation order is deterministic and independent of
		// insertion history.
		at := len(nt.linear)
		for i, l := range nt.linear {
			if l.idx > slot {
				at = i
				break
			}
		}
		nt.linear = append(nt.linear, tlinear{})
		copy(nt.linear[at+1:], nt.linear[at:])
		nt.linear[at] = tlinear{idx: slot, fp: st.fp}
	}
	return nt, slot
}

// insertEntry adds one extracted entry to the tree, copying only the
// nodes along its path.
func insertEntry(n *tnode, e tentry, wk *int) *tnode {
	if n == nil {
		return buildNode([]tentry{e}, wk)
	}
	c := n.clone(wk)
	if len(e.conds) == 0 {
		c.accepts = append(c.accepts, taccept{idx: e.idx, minWords: e.minWords})
		return c
	}
	if c.word < 0 {
		// Leaf-only node: it must now test a word.  Mirror buildNode's
		// choice for a single entry: the lowest remaining word.
		best := e.conds[0].Word
		for _, cd := range e.conds {
			if cd.Word < best {
				best = cd.Word
			}
		}
		c.word = best
	}
	val, tests := uint16(0), false
	var remaining []Cond
	for _, cd := range e.conds {
		if cd.Word == c.word {
			val, tests = cd.Value, true
		} else {
			remaining = append(remaining, cd)
		}
	}
	if tests {
		if c.branches == nil {
			c.branches = make(map[uint16]*tnode, 1)
		}
		c.branches[val] = insertEntry(c.branches[val], tentry{idx: e.idx, minWords: e.minWords, conds: remaining}, wk)
	} else {
		c.wildcard = insertEntry(c.wildcard, e, wk)
	}
	return c
}

// Remove returns a new table without the filter in the given slot,
// sharing every untouched subtree with the receiver.  Removing a dead
// slot is a no-op clone.
func (t *Table) Remove(slot int) *Table {
	nt := t.shallowClone()
	if slot < 0 || slot >= len(nt.slots) {
		return nt
	}
	st := nt.slots[slot]
	switch st.kind {
	case slotTree:
		nt.root = removeEntry(nt.root, slot, st.conds, &nt.work)
	case slotFallback:
		for i, l := range nt.linear {
			if l.idx == slot {
				nt.linear = append(nt.linear[:i:i], nt.linear[i+1:]...)
				break
			}
		}
	case slotDead:
		return nt
	}
	nt.filters[slot] = Filter{}
	nt.slots[slot] = slotState{kind: slotDead}
	nt.free = append(nt.free, slot)
	return nt
}

// removeEntry deletes one entry along its deterministic path, copying
// the touched nodes and pruning any that become empty.
func removeEntry(n *tnode, slot int, conds []Cond, wk *int) *tnode {
	if n == nil {
		return nil
	}
	c := n.clone(wk)
	if len(conds) == 0 {
		for i, a := range c.accepts {
			if a.idx == slot {
				c.accepts = append(c.accepts[:i:i], c.accepts[i+1:]...)
				break
			}
		}
		return pruneNode(c)
	}
	val, tests := uint16(0), false
	var remaining []Cond
	for _, cd := range conds {
		if cd.Word == c.word {
			val, tests = cd.Value, true
		} else {
			remaining = append(remaining, cd)
		}
	}
	if tests {
		if b := c.branches[val]; b != nil {
			nb := removeEntry(b, slot, remaining, wk)
			if nb == nil {
				delete(c.branches, val)
				if len(c.branches) == 0 {
					c.branches = nil
				}
			} else {
				c.branches[val] = nb
			}
		}
	} else {
		c.wildcard = removeEntry(c.wildcard, slot, conds, wk)
	}
	return pruneNode(c)
}

// pruneNode drops a node that no longer holds or routes anything.
func pruneNode(n *tnode) *tnode {
	if len(n.accepts) == 0 && len(n.branches) == 0 && n.wildcard == nil {
		return nil
	}
	return n
}

// Slots returns the slot-array length (live and dead slots included).
func (t *Table) Slots() int { return len(t.filters) }

// Live reports whether the slot currently holds a filter.
func (t *Table) Live(slot int) bool {
	return slot >= 0 && slot < len(t.slots) && t.slots[slot].kind != slotDead
}

// Fallback returns the flat code evaluated linearly for the slot, or
// nil if the slot is tree-resident, inert or dead.
func (t *Table) Fallback(slot int) *FlatProg {
	if slot < 0 || slot >= len(t.slots) {
		return nil
	}
	return t.slots[slot].fp
}

// Work returns the cumulative deterministic construction work (nodes
// built or copied, programs compiled) accumulated by this table and
// every ancestor it was patched from.  The difference across one
// Insert/Remove (or one BuildTable) is that operation's cost in
// stall-free units.
func (t *Table) Work() int { return t.work }

// LinearEval reports one fallback interpreter run performed during a
// table match: which filter, how many instruction words it executed,
// and whether it accepted.
type LinearEval struct {
	Idx    int
	Instrs int
	Accept bool
}

// MatchResult is a table match plus its evaluation-cost detail: the
// decision-tree path depth (Edges, one per tree node whose packet word
// was examined) and the per-filter interpreter runs of the linear
// fallbacks.  The total work of the match is Edges plus the sum of the
// fallback Instrs.
type MatchResult struct {
	Idxs   []int
	Edges  int
	Linear []LinearEval
}

// Candidates reports every slot whose filter may accept pkt: first the
// tree-resident slots that do accept it (unsorted; tree counts them),
// then every fallback slot in ascending slot order, plus the walk's
// path depth.  The returned slice is reused by the next Candidates or
// MatchStats call.  Fallback programs are not run — the caller drives
// those itself via Fallback, which is how the devices evaluate
// fallbacks lazily in scan order.  No other slot can accept, so a
// device scan need visit only these slots' ports.
func (t *Table) Candidates(pkt []byte) (slots []int, tree, edges int) {
	t.scratch = t.scratch[:0]
	t.edges = 0
	t.walk(t.root, pkt)
	tree = len(t.scratch)
	for _, l := range t.linear {
		t.scratch = append(t.scratch, l.idx)
	}
	return t.scratch, tree, t.edges
}

// Match returns the indices of all filters accepting pkt, sorted by
// decreasing priority (ties by ascending index, matching the "order of
// application is unspecified" rule deterministically).
func (t *Table) Match(pkt []byte) []int {
	return t.MatchStats(pkt).Idxs
}

// MatchStats is Match plus cost accounting.  The returned slices are
// reused by the next call.
func (t *Table) MatchStats(pkt []byte) MatchResult {
	t.scratch = t.scratch[:0]
	t.lin = t.lin[:0]
	t.edges = 0
	t.walk(t.root, pkt)
	for _, l := range t.linear {
		r := l.fp.Run(pkt)
		if r.Accept {
			t.scratch = append(t.scratch, l.idx)
		}
		t.lin = append(t.lin, LinearEval{Idx: l.idx, Instrs: r.Instrs, Accept: r.Accept})
	}
	out := t.scratch
	// Insertion sort in place (decreasing priority, ties by ascending
	// index): sort.Slice's interface conversion allocates, and this
	// path runs once per received packet.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			pp, pc := t.filters[out[j-1]].Priority, t.filters[out[j]].Priority
			if pp > pc || (pp == pc && out[j-1] < out[j]) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return MatchResult{Idxs: out, Edges: t.edges, Linear: t.lin}
}

// MatchBest returns the highest-priority accepting filter index, or -1.
func (t *Table) MatchBest(pkt []byte) int {
	m := t.Match(pkt)
	if len(m) == 0 {
		return -1
	}
	return m[0]
}

func (t *Table) walk(n *tnode, pkt []byte) {
	for n != nil {
		for _, a := range n.accepts {
			if len(pkt) >= 2*a.minWords {
				t.scratch = append(t.scratch, a.idx)
			}
		}
		if n.word < 0 {
			return
		}
		t.edges++
		if n.branches != nil {
			if v, ok := PacketWord(pkt, n.word); ok {
				if b := n.branches[v]; b != nil {
					t.walk(b, pkt)
				}
			}
		}
		n = n.wildcard
	}
}
