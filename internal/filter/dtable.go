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
// path only; the branch maps and the slot vector are paged, so the
// bytes copied do not grow with the filter population either).  A
// published table is immutable with respect to its
// filter set, which is what lets the devices swap table pointers
// atomically while in-flight matches finish on the old one.  The
// cumulative construction work (nodes built or copied, programs
// extracted or compiled) is tracked in deterministic units so the
// churn benchmark can compare incremental maintenance against full
// rebuilds without touching a wall clock.

import (
	"math/bits"
	"slices"
)

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

// slotState is the per-slot record: the filter's priority (the only
// part of the Filter a match reads) and everything Remove needs to
// patch the filter back out of the structure it was inserted into.
type slotState struct {
	conds    []Cond    // tree slots: the extracted conjunction
	fp       *FlatProg // fallback slots: the compiled program
	minWords int
	kind     slotKind
	priority uint8
}

// deadSlot is the one record every dead slot points to.
var deadSlot = &slotState{kind: slotDead}

// slotPage is the slot vector's unit of copying: a patch copies the
// one page holding the slot it changes.
const slotPage = 64

// slotVec is a persistent vector of slot records, slotPage record
// pointers to a page.  Neither a published page nor a record is ever
// written: with copies the page directory and the one page it changes
// (512 bytes of pointers) and shares every other page and record, so a
// patch copies O(slots/slotPage) pointers, one page and at most one
// new record rather than every record.
type slotVec struct {
	pages []*[slotPage]*slotState
	n     int
}

func newSlotVec(sts []slotState) slotVec {
	v := slotVec{n: len(sts)}
	for i := 0; i < len(sts); i += slotPage {
		p := new([slotPage]*slotState)
		for j := range min(slotPage, len(sts)-i) {
			p[j] = &sts[i+j]
		}
		v.pages = append(v.pages, p)
	}
	return v
}

// at returns slot i's record, which the caller must not modify.
func (v slotVec) at(i int) *slotState { return v.pages[i/slotPage][i%slotPage] }

// with returns a vector with slot i set to st, which the caller must
// not modify afterwards; i may be v.n, which appends.  v is untouched.
func (v slotVec) with(i int, st *slotState) slotVec {
	pi := i / slotPage
	pages := make([]*[slotPage]*slotState, max(len(v.pages), pi+1))
	copy(pages, v.pages)
	p := new([slotPage]*slotState)
	if pi < len(v.pages) {
		*p = *v.pages[pi]
	}
	p[i%slotPage] = st
	pages[pi] = p
	return slotVec{pages: pages, n: max(v.n, i+1)}
}

// freeSlot is one entry of the free-slot stack: dead slots available
// for reuse, the most recently freed on top.  Entries are immutable,
// so every table shares its predecessors' stack: Remove pushes a new
// head and Insert pops by taking next.
type freeSlot struct {
	slot int
	next *freeSlot
}

// Table is a merged evaluator for a set of filters.  Filters whose
// programs reduce to equality conjunctions are compiled into one
// decision tree; the rest are compiled to flat register code and
// applied linearly.  Filters that fail even validation match nothing.
//
// A Table's filter set is immutable: Insert and Remove return a new
// Table sharing all untouched subtrees, slot pages, the free-slot
// stack and (unless the fallback set changed) the fallback list.  The
// per-match scratch buffers are not shared between tables and make a
// single Table value safe only for serialized matching (the devices
// guarantee this).
type Table struct {
	slots   slotVec
	free    *freeSlot
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
	word     int        // packet word tested at this node; -1 for leaf-only
	branches *branchMap // nil when no entry tests this word
	wildcard *tnode     // entries that do not test this word
	accepts  []taccept  // filters fully satisfied at this node
}

// branchMap is a node's dispatch on the tested word's value, in two
// 256-way levels: the value's high byte selects a page, its low byte
// the child within it.  It is persistent — with and without return a
// new map sharing every page they do not change — so a copy-on-write
// path copies at most one level-1 array and one page (512 entries)
// per node, however large the fanout.
type branchMap struct {
	hi sparse[*sparse[*tnode]]
	n  int // logical fanout: values that have a child
}

// get returns v's child, or nil; m may be nil.
func (m *branchMap) get(v uint16) *tnode {
	if m == nil {
		return nil
	}
	if lo := m.hi.get(uint8(v >> 8)); lo != nil {
		return lo.get(uint8(v))
	}
	return nil
}

// fanout is the number of values with a child; m may be nil.
func (m *branchMap) fanout() int {
	if m == nil {
		return 0
	}
	return m.n
}

// with returns a map with v's child set to c; m may be nil and is
// untouched.
func (m *branchMap) with(v uint16, c *tnode) *branchMap {
	var nm branchMap
	if m != nil {
		nm = *m
	}
	var lo sparse[*tnode]
	if p := nm.hi.get(uint8(v >> 8)); p != nil {
		lo = *p
	}
	if !lo.has(uint8(v)) {
		nm.n++
	}
	lo = lo.with(uint8(v), c)
	nm.hi = nm.hi.with(uint8(v>>8), &lo)
	return &nm
}

// without returns a map without v's child, or nil once none is left;
// m is untouched.
func (m *branchMap) without(v uint16) *branchMap {
	p := m.hi.get(uint8(v >> 8))
	if p == nil || !p.has(uint8(v)) {
		return m
	}
	if m.n == 1 {
		return nil
	}
	nm := *m
	nm.n--
	if lo := p.without(uint8(v)); len(lo.vals) > 0 {
		nm.hi = nm.hi.with(uint8(v>>8), &lo)
	} else {
		nm.hi = nm.hi.without(uint8(v >> 8))
	}
	return &nm
}

// push adds a child for v, which must exceed every value already
// present — buildNode's ascending fill of a map nothing shares yet.
func (m *branchMap) push(v uint16, c *tnode) {
	if !m.hi.has(uint8(v >> 8)) {
		m.hi.push(uint8(v>>8), new(sparse[*tnode]))
	}
	m.hi.vals[len(m.hi.vals)-1].push(uint8(v), c)
	m.n++
}

// each calls f on every child, in ascending value order.
func (m *branchMap) each(f func(*tnode)) {
	if m == nil {
		return
	}
	for _, lo := range m.hi.vals {
		for _, c := range lo.vals {
			f(c)
		}
	}
}

// sparse is one 256-way level of a branchMap: a bitmap of the byte keys
// present and their values in ascending key order, so a lookup is a
// bit test and a popcount.  with and without build a fresh value array
// and never write the one they were given, which other tables share.
type sparse[T any] struct {
	bits [4]uint64
	vals []T
}

func (s *sparse[T]) has(k uint8) bool { return s.bits[k>>6]&(1<<(k&63)) != 0 }

// rank is k's index in vals: the number of keys present below k.
func (s *sparse[T]) rank(k uint8) int {
	w := k >> 6
	r := bits.OnesCount64(s.bits[w] & (1<<(k&63) - 1))
	for _, b := range s.bits[:w] {
		r += bits.OnesCount64(b)
	}
	return r
}

func (s *sparse[T]) get(k uint8) (v T) {
	if s.has(k) {
		v = s.vals[s.rank(k)]
	}
	return v
}

func (s sparse[T]) with(k uint8, v T) sparse[T] {
	i := s.rank(k)
	if s.has(k) {
		s.vals = slices.Clone(s.vals)
		s.vals[i] = v
		return s
	}
	s.bits[k>>6] |= 1 << (k & 63)
	s.vals = slices.Insert(slices.Clip(s.vals), i, v)
	return s
}

func (s sparse[T]) without(k uint8) sparse[T] {
	i := s.rank(k)
	s.bits[k>>6] &^= 1 << (k & 63)
	s.vals = slices.Concat(s.vals[:i], s.vals[i+1:])
	return s
}

// push appends k, which must exceed every key present, in place.
func (s *sparse[T]) push(k uint8, v T) {
	s.bits[k>>6] |= 1 << (k & 63)
	s.vals = append(s.vals, v)
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
// existing node.  It counts logical branches, not the entries the
// storage copies (a branchMap patch copies at most two pages): Work
// feeds the simulator's rebuild stall and the exp-churn tables, which
// are pinned and must not move with a storage layout, so a branch is
// priced at 1/16 of constructing one whatever its representation.
func workClone(fanout int) int { return 1 + fanout/16 }

// workCompile is the deterministic cost of extracting/compiling one
// program into the table.
const workCompile = 4

// BuildTable compiles the filter set from scratch.  The returned table
// matches exactly the same (packet, filter) pairs as running every
// program with Run.  Slot i holds filters[i].
func BuildTable(filters []Filter) *Table {
	t := &Table{}
	sts := make([]slotState, len(filters))
	var entries []tentry
	for i, f := range filters {
		st := t.compileSlot(f)
		sts[i] = st
		switch st.kind {
		case slotTree:
			entries = append(entries, tentry{idx: i, minWords: st.minWords, conds: st.conds})
		case slotFallback:
			t.linear = append(t.linear, tlinear{idx: i, fp: st.fp})
		}
	}
	t.slots = newSlotVec(sts)
	t.root = buildNode(entries, &t.work)
	return t
}

// compileSlot classifies and compiles one filter program, charging
// work units.
func (t *Table) compileSlot(f Filter) slotState {
	t.work += workCompile
	st := slotState{kind: slotInert, priority: f.Priority}
	if ex, ok := Extract(f.Program); ok {
		if !contradictory(ex.Conds) {
			st.kind, st.conds, st.minWords = slotTree, ex.Conds, ex.MinWords
		}
	} else if fp, err := CompileFlat(f.Program, ValidateOptions{}, Env{}); err == nil {
		st.kind, st.fp = slotFallback, fp
	} // else invalid program: inert, matches nothing
	return st
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
		vals := make([]uint16, 0, len(byValue))
		for v := range byValue {
			vals = append(vals, v)
		}
		slices.Sort(vals)
		n.branches = new(branchMap)
		for _, v := range vals {
			n.branches.push(v, buildNode(byValue[v], wk))
		}
	}
	n.wildcard = buildNode(wild, wk)
	*wk += workNode(n.branches.fanout())
	return n
}

// clone copies one node so it can be patched without touching the
// shared original.  Subtrees, the branch map and the accepts array are
// shared: the patch replaces each with a fresh copy when it changes it.
func (n *tnode) clone(wk *int) *tnode {
	c := *n
	*wk += workClone(n.branches.fanout())
	return &c
}

// shallowClone starts a patched table: everything is shared until
// insert/remove replaces what it changes.
func (t *Table) shallowClone() *Table {
	return &Table{slots: t.slots, free: t.free, root: t.root, linear: t.linear, work: t.work}
}

// Insert returns a new table containing f in a fresh slot, sharing
// every untouched subtree with the receiver, plus the assigned slot.
// Construction work is proportional to the affected path, not the
// filter population.
func (t *Table) Insert(f Filter) (*Table, int) {
	nt := t.shallowClone()
	slot := nt.slots.n
	if nt.free != nil {
		slot, nt.free = nt.free.slot, nt.free.next
	}
	st := nt.compileSlot(f)
	nt.slots = nt.slots.with(slot, &st)
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
		nt.linear = slices.Insert(slices.Clip(nt.linear), at, tlinear{idx: slot, fp: st.fp})
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
		c.accepts = append(slices.Clip(c.accepts), taccept{idx: e.idx, minWords: e.minWords})
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
		b := insertEntry(c.branches.get(val), tentry{idx: e.idx, minWords: e.minWords, conds: remaining}, wk)
		c.branches = c.branches.with(val, b)
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
	if !t.Live(slot) {
		return nt
	}
	st := nt.slots.at(slot)
	switch st.kind {
	case slotTree:
		nt.root = removeEntry(nt.root, slot, st.conds, &nt.work)
	case slotFallback:
		for i, l := range nt.linear {
			if l.idx == slot {
				nt.linear = slices.Concat(nt.linear[:i], nt.linear[i+1:])
				break
			}
		}
	}
	nt.slots = nt.slots.with(slot, deadSlot)
	nt.free = &freeSlot{slot: slot, next: nt.free}
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
		if b := c.branches.get(val); b != nil {
			if nb := removeEntry(b, slot, remaining, wk); nb == nil {
				c.branches = c.branches.without(val)
			} else {
				c.branches = c.branches.with(val, nb)
			}
		}
	} else {
		c.wildcard = removeEntry(c.wildcard, slot, conds, wk)
	}
	return pruneNode(c)
}

// pruneNode drops a node that no longer holds or routes anything.
func pruneNode(n *tnode) *tnode {
	if len(n.accepts) == 0 && n.branches == nil && n.wildcard == nil {
		return nil
	}
	return n
}

// Slots returns the slot-array length (live and dead slots included).
func (t *Table) Slots() int { return t.slots.n }

// Live reports whether the slot currently holds a filter.
func (t *Table) Live(slot int) bool {
	return slot >= 0 && slot < t.slots.n && t.slots.at(slot).kind != slotDead
}

// Fallback returns the flat code evaluated linearly for the slot, or
// nil if the slot is tree-resident, inert or dead.
func (t *Table) Fallback(slot int) *FlatProg {
	if slot < 0 || slot >= t.slots.n {
		return nil
	}
	return t.slots.at(slot).fp
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
			pp, pc := t.slots.at(out[j-1]).priority, t.slots.at(out[j]).priority
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
				if b := n.branches.get(v); b != nil {
					t.walk(b, pkt)
				}
			}
		}
		n = n.wildcard
	}
}
