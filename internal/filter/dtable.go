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
// path only: a node copy carries its branch map, which copies at most
// one 256-entry page array and one page, and the slot vector, a 16-way
// radix tree, copies one node per level).  A published table is
// immutable with respect to its filter set, which is what lets the
// devices swap table pointers atomically while in-flight matches finish
// on the old one.  The cumulative construction work (nodes built or
// copied, programs extracted or compiled) is tracked in deterministic
// units so the churn benchmark can compare incremental maintenance
// against full rebuilds without touching a wall clock.

import (
	"math/bits"
	"slices"
	"unsafe"
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

	// Abstract values for symbolic execution.  A conjunction is the
	// range [lo, hi) of conj.  Only EQ appends there and only AND
	// consumes a conjunction, so AND's two operands, adjacent on the
	// stack, are adjacent ranges and their union is one range.
	type kind int
	const (
		aConst kind = iota // a known 16-bit constant
		aWord              // the value of one packet word
		aConj              // boolean: 1 iff a set of conditions holds
	)
	type aval struct {
		k      kind
		c      uint16 // for aConst
		w      int    // for aWord
		lo, hi int    // for aConj
	}

	// Validate bounds the stack, and every condition takes two pushed
	// operands, so none of these buffers grows.
	var stackBuf [StackDepth]aval
	var conjBuf, globalBuf [MaxProgramLen / 2]Cond
	stack, conj := stackBuf[:0], conjBuf[:0]
	global := globalBuf[:0] // conditions asserted by CAND terminators
	minWords := 0           // every accessed word must exist in the packet

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
			conj = append(conj, c)
			stack = append(stack, aval{k: aConj, lo: len(conj) - 1, hi: len(conj)})
		case CAND:
			c, isEq := eqCond(t2, t1)
			if !isEq {
				return Extracted{}, false
			}
			global = append(global, c)
			// CAND pushes TRUE when it continues.
			stack = append(stack, aval{k: aConj, lo: len(conj), hi: len(conj)})
		case AND:
			if t2.k != aConj || t1.k != aConj {
				return Extracted{}, false
			}
			stack = append(stack, aval{k: aConj, lo: t2.lo, hi: t1.hi})
		default:
			return Extracted{}, false
		}
	}

	top := stack[len(stack)-1]
	conds := global
	switch top.k {
	case aConj:
		conds = append(conds, conj[top.lo:top.hi]...)
	case aConst:
		if top.c == 0 {
			return Extracted{}, false // reject-all: leave to linear path
		}
	default: // aWord: acceptance depends on a raw field value
		return Extracted{}, false
	}
	return Extracted{Conds: dedupe(conds), MinWords: minWords}, true
}

// dedupe returns conds without repeats, first occurrences in order, in
// one new slice (nil when empty).  It overwrites conds.
func dedupe(conds []Cond) []Cond {
	out := conds[:0]
	for _, c := range conds {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return append([]Cond(nil), out...)
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

// The slot vector's nodes hold slotFan pointers: slot i's index in the
// node at each level is one slotBits-wide digit of i.
const slotBits, slotFan = 4, 1 << 4

// slotNode is one node of the slot vector's radix tree.  Its entries
// are *slotState records at the bottom level and *slotNode children
// above it; both are stored as unsafe.Pointer, always read back as the
// type the level wrote, so one 128-byte node type serves every level.
type slotNode [slotFan]unsafe.Pointer

// slotVec is a persistent vector of slot records: a 16-way radix tree
// of record pointers, height levels deep, whose root each table holds
// by value.  Neither a published node below the root nor a record is
// ever written: set copies the one node per level on slot i's path and
// shares every other node and record, so a patch copies O(log16 slots)
// pointers and at most one new record.
type slotVec struct {
	root   slotNode
	height int // 0 while empty; slots below 16^height fit
	n      int
}

// newSlotVec builds the vector over sts bottom-up in one allocation,
// each level's nodes following those of the level below.
func newSlotVec(sts []slotState) slotVec {
	v, total := slotVec{n: len(sts)}, 0
	for w := len(sts); w > 1 || w == 1 && v.height == 0; v.height++ {
		w = (w + slotFan - 1) / slotFan
		total += w
	}
	nodes := make([]slotNode, total)
	for j := range sts {
		nodes[j/slotFan][j%slotFan] = unsafe.Pointer(&sts[j])
	}
	for lo, w := 0, (len(sts)+slotFan-1)/slotFan; w > 1; lo, w = lo+w, (w+slotFan-1)/slotFan {
		for j := range w {
			nodes[lo+w+j/slotFan][j%slotFan] = unsafe.Pointer(&nodes[lo+j])
		}
	}
	if total > 0 {
		v.root = nodes[total-1]
	}
	return v
}

// at returns slot i's record, which the caller must not modify.
func (v *slotVec) at(i int) *slotState {
	nd := &v.root
	for s := slotBits * (v.height - 1); s > 0; s -= slotBits {
		nd = (*slotNode)(nd[(i>>s)&(slotFan-1)])
	}
	return (*slotState)(nd[i&(slotFan-1)])
}

// set points slot i at st, which the caller must not modify afterwards;
// i may be v.n, which appends.  v must be a patched table's own copy.
// Each copied node is its own allocation: the nodes of one path
// outlive one another, and a shared allocation would keep a replaced
// node, and every older node it points to, alive.
func (v *slotVec) set(i int, st *slotState) {
	if v.height == 0 || i>>(slotBits*v.height) != 0 {
		// Full or empty: grow a level, the old root the new first child.
		if v.height > 0 {
			old := v.root
			v.root = slotNode{unsafe.Pointer(&old)}
		}
		v.height++
	}
	nd := &v.root
	for s := slotBits * (v.height - 1); s > 0; s -= slotBits {
		k, next := (i>>s)&(slotFan-1), new(slotNode)
		if old := nd[k]; old != nil {
			*next = *(*slotNode)(old)
		}
		nd[k], nd = unsafe.Pointer(next), next
	}
	nd[i&(slotFan-1)] = unsafe.Pointer(st)
	v.n = max(v.n, i+1)
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
// Table sharing all untouched subtrees, slot nodes, the free-slot
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

// bnode is a patched node that tests a word, allocated with its map.
type bnode struct {
	tnode
	m branchMap
}

// branchMap is a node's dispatch on the tested word's value, in two
// 256-way levels: the value's high byte selects a page, its low byte
// the child within it.  Its pages are persistent — a patch builds new
// ones and never writes a page or array another table can reach — so
// a copy-on-write path copies at most one level-1 array and one page
// (512 entries) per node, however large the fanout.  A single page is
// kept in pg, so a fanout-1 node allocates nothing beyond itself;
// nothing outside the map points there (clone re-points a copy's).
type branchMap struct {
	hi sparse[*sparse[*tnode]]
	n  int // logical fanout: values that have a child
	pg sparse[*tnode]
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

// set points v at c, or drops v when c is nil, in a map nothing shares
// yet (a fresh copy), making new pages and arrays for what changes.
func (m *branchMap) set(v uint16, c *tnode) {
	hb, lb := uint8(v>>8), uint8(v)
	var pg sparse[*tnode]
	if p := m.hi.get(hb); p != nil {
		pg = *p
	}
	if pg.has(lb) {
		m.n--
	}
	if c == nil {
		pg = pg.del(lb)
	} else {
		pg, m.n = pg.set(lb, c), m.n+1
	}
	if m.hi.one == &m.pg && !m.hi.has(hb) {
		// A second page joins: the first leaves the map, since a
		// level-1 array other copies share must not point into it.
		p := m.pg
		m.hi.one = &p
	}
	switch p := &m.pg; {
	case pg.bits == [4]uint64{}:
		m.hi = m.hi.del(hb)
	case m.hi.vals != nil || m.hi.one != nil && !m.hi.has(hb):
		p = new(sparse[*tnode])
		fallthrough
	default:
		*p = pg
		m.hi = m.hi.set(hb, p)
	}
	if p := m.hi.one; p != nil && p != &m.pg {
		m.pg, m.hi.one = *p, &m.pg // one page left: back inside
	}
}

// push adds a child for v, which must exceed every value already
// present — buildNode's ascending fill of a map nothing shares yet.
func (m *branchMap) push(v uint16, c *tnode) {
	if hb := uint8(v >> 8); !m.hi.has(hb) {
		p := &m.pg
		if m.hi.bits != [4]uint64{} {
			if m.hi.one == &m.pg {
				first := m.pg
				m.hi.one = &first
			}
			p = new(sparse[*tnode])
		}
		m.hi.push(hb, p)
	}
	m.hi.get(uint8(v>>8)).push(uint8(v), c)
	m.n++
}

// each calls f on every child, in ascending value order.
func (m *branchMap) each(f func(*tnode)) {
	if m != nil {
		m.hi.each(func(lo *sparse[*tnode]) { lo.each(f) })
	}
}

// sparse is one 256-way level of a branchMap: a bitmap of the byte keys
// present and their values in ascending key order, so a lookup is a
// bit test and a popcount.  A single value is held inline (one), so a
// fanout-1 level needs no array.  set and del return a new level and
// never write the array they were given, which other tables share.
type sparse[T any] struct {
	bits [4]uint64
	vals []T // values in key order, while two or more keys are present
	one  T   // the value, while one key is present
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
	switch {
	case !s.has(k):
	case s.vals == nil:
		v = s.one
	default:
		v = s.vals[s.rank(k)]
	}
	return v
}

// set returns s with k's value v.
func (s sparse[T]) set(k uint8, v T) sparse[T] {
	had, old := s.has(k), s.vals
	if old == nil && s.bits != [4]uint64{} && !had {
		old = []T{s.one}
	}
	s.bits[k>>6] |= 1 << (k & 63)
	if old == nil {
		s.one = v
		return s
	}
	i, skip := s.rank(k), 0
	if had {
		skip = 1
	}
	s.vals = append(append(append(make([]T, 0, len(old)+1-skip), old[:i]...), v), old[i+skip:]...)
	var zero T
	s.one = zero
	return s
}

// del returns s without k, which must be present.
func (s sparse[T]) del(k uint8) sparse[T] {
	i := s.rank(k)
	s.bits[k>>6] &^= 1 << (k & 63)
	var zero T
	switch len(s.vals) {
	case 0:
		s.one = zero
	case 2:
		s.one, s.vals = s.vals[1-i], nil
	default:
		s.vals = slices.Concat(s.vals[:i], s.vals[i+1:])
	}
	return s
}

// push appends k, which must exceed every key present, in place.
func (s *sparse[T]) push(k uint8, v T) {
	switch {
	case s.bits == [4]uint64{}:
		s.one = v
	case s.vals == nil:
		var zero T
		s.vals, s.one = []T{s.one, v}, zero
	default:
		s.vals = append(s.vals, v)
	}
	s.bits[k>>6] |= 1 << (k & 63)
}

// each calls f on every value, in key order.
func (s *sparse[T]) each(f func(T)) {
	if s.vals == nil && s.bits != [4]uint64{} {
		f(s.one)
	}
	for _, v := range s.vals {
		f(v)
	}
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
	nt.slots.set(slot, &st)
	switch st.kind {
	case slotTree:
		nt.root = insertEntry(nt.root, tentry{idx: slot, minWords: st.minWords, conds: st.conds}, 0, &nt.work)
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

// clone copies n so it can be patched without touching the shared
// original, charging the copy's work.  A node that tests a word, or
// is about to (mapped), is copied as a bnode that owns a copy of its
// branch map; subtrees, pages and the accepts array stay shared until
// the patch replaces what it changes.
func clone(n *tnode, mapped bool, wk *int) *tnode {
	*wk += workClone(n.branches.fanout())
	if n.branches == nil && !mapped {
		c := *n
		return &c
	}
	b := &bnode{tnode: *n}
	if m := n.branches; m != nil {
		b.m = *m
		if m.hi.one == &m.pg {
			b.m.hi.one = &b.m.pg
		}
	}
	b.branches = &b.m
	return &b.tnode
}

// pick returns the index of the condition on word that used does not
// mark, or for word -1 the unmarked condition on the lowest word; -1
// if there is none.  An entry tests each word at most once (Extract
// dedupes, and contradictory entries stay out of the tree), and has at
// most MaxProgramLen/2 conditions, one bit of used each.
func pick(conds []Cond, used uint64, word int) int {
	best := -1
	for i, c := range conds {
		if used&(1<<i) == 0 && (c.Word == word || word < 0 && (best < 0 || c.Word < conds[best].Word)) {
			best = i
		}
	}
	return best
}

// insertEntry adds one extracted entry to the tree, copying only the
// nodes along its path; used marks the conditions tested above n.
func insertEntry(n *tnode, e tentry, used uint64, wk *int) *tnode {
	next := pick(e.conds, used, -1)
	if n == nil {
		// Past the tree's end, build what buildNode would for the
		// entry alone: a node per remaining word, lowest first, down
		// to a leaf accepting it.
		if next < 0 {
			*wk += workNode(0)
			return &tnode{word: -1, accepts: []taccept{{idx: e.idx, minWords: e.minWords}}}
		}
		*wk += workNode(1)
		b := &bnode{tnode: tnode{word: e.conds[next].Word}}
		b.branches = &b.m
		b.m.set(e.conds[next].Value, insertEntry(nil, e, used|1<<next, wk))
		return &b.tnode
	}
	if next < 0 {
		c := clone(n, false, wk)
		c.accepts = append(slices.Clip(n.accepts), taccept{idx: e.idx, minWords: e.minWords})
		return c
	}
	next = pick(e.conds, used, n.word) // a leaf-only node takes the lowest
	c := clone(n, next >= 0, wk)
	if next < 0 {
		c.wildcard = insertEntry(n.wildcard, e, used, wk)
		return c
	}
	v := e.conds[next].Value
	c.word = e.conds[next].Word
	c.branches.set(v, insertEntry(n.branches.get(v), e, used|1<<next, wk))
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
		nt.root = removeEntry(nt.root, slot, st.conds, 0, &nt.work)
	case slotFallback:
		for i, l := range nt.linear {
			if l.idx == slot {
				nt.linear = slices.Concat(nt.linear[:i], nt.linear[i+1:])
				break
			}
		}
	}
	nt.slots.set(slot, deadSlot)
	nt.free = &freeSlot{slot: slot, next: nt.free}
	return nt
}

// removeEntry deletes one entry along its deterministic path, copying
// the touched nodes and pruning any that become empty; used marks the
// conditions tested above n.
func removeEntry(n *tnode, slot int, conds []Cond, used uint64, wk *int) *tnode {
	if n == nil {
		return nil
	}
	if pick(conds, used, -1) < 0 {
		acc := n.accepts
		if i := slices.IndexFunc(acc, func(a taccept) bool { return a.idx == slot }); i >= 0 {
			acc = append(acc[:i:i], acc[i+1:]...)
		}
		if len(acc) == 0 && n.branches == nil && n.wildcard == nil {
			*wk += workClone(0) // the copy would be pruned at once
			return nil
		}
		c := clone(n, false, wk)
		c.accepts = acc
		return c
	}
	// A leaf-only node (word -1) has neither branches nor a wildcard.
	c, i := clone(n, false, wk), pick(conds, used, n.word)
	if i < 0 {
		c.wildcard = removeEntry(n.wildcard, slot, conds, used, wk)
	} else if b := n.branches.get(conds[i].Value); b != nil {
		if c.branches.set(conds[i].Value, removeEntry(b, slot, conds, used|1<<i, wk)); c.branches.n == 0 {
			c.branches = nil
		}
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
// path depth.  The slots are written over dst's storage (dst[:0],
// grown as needed), so a caller that passes the previous result back
// matches without allocating; Candidates writes nothing in the table.
// Fallback programs are not run — the caller drives those itself via
// Fallback, which is how the devices evaluate fallbacks lazily in scan
// order.  No other slot can accept, so a device scan need visit only
// these slots' ports.
func (t *Table) Candidates(pkt []byte, dst []int) (slots []int, tree, edges int) {
	slots, edges = walk(t.root, pkt, dst[:0], 0)
	tree = len(slots)
	for _, l := range t.linear {
		slots = append(slots, l.idx)
	}
	return slots, tree, edges
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
	out, edges := walk(t.root, pkt, t.scratch[:0], 0)
	t.lin = t.lin[:0]
	for _, l := range t.linear {
		r := l.fp.Run(pkt)
		if r.Accept {
			out = append(out, l.idx)
		}
		t.lin = append(t.lin, LinearEval{Idx: l.idx, Instrs: r.Instrs, Accept: r.Accept})
	}
	t.scratch = out
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
	return MatchResult{Idxs: out, Edges: edges, Linear: t.lin}
}

// MatchBest returns the highest-priority accepting filter index, or -1.
func (t *Table) MatchBest(pkt []byte) int {
	m := t.Match(pkt)
	if len(m) == 0 {
		return -1
	}
	return m[0]
}

// walk appends to out the slots of the entries n's subtree accepts pkt
// at, and adds to edges one per node whose packet word it examined.
func walk(n *tnode, pkt []byte, out []int, edges int) ([]int, int) {
	for n != nil {
		for _, a := range n.accepts {
			if len(pkt) >= 2*a.minWords {
				out = append(out, a.idx)
			}
		}
		if n.word < 0 {
			break
		}
		edges++
		var b *tnode
		if n.branches != nil {
			if v, ok := PacketWord(pkt, n.word); ok {
				b = n.branches.get(v)
			}
		}
		if b != nil && n.wildcard == nil {
			n = b // nothing to visit after b: iterate, not recurse
			continue
		}
		if b != nil {
			out, edges = walk(b, pkt, out, edges)
		}
		n = n.wildcard
	}
	return out, edges
}
