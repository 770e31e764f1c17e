package sim

import "time"

// WaitQ is a kernel wait queue (the moral equivalent of 4.3BSD's
// sleep/wakeup channels).  Processes block on it with Wait; kernel or
// process code unblocks them with WakeOne/WakeAll.
type WaitQ struct {
	sim     *Sim
	waiters fifo[*Proc]
}

// NewWaitQ creates a wait queue.
func (s *Sim) NewWaitQ() *WaitQ { return &WaitQ{sim: s} }

// Wait blocks the calling process until a wakeup or until timeout
// elapses; timeout <= 0 means wait indefinitely.  It reports whether
// the process was woken (false on timeout).
func (p *Proc) Wait(q *WaitQ, timeout time.Duration) bool {
	p.sim.assertProc("Wait")
	p.blocked = true
	p.woken = false
	p.timeout = nil
	q.waiters.push(p)
	if timeout > 0 {
		p.waitQ = q
		p.timeout = p.sim.After(timeout, p.timeoutFn)
		p.tgen = p.timeout.gen
	}
	p.park()
	// A wakeup that raced with the timeout may resume us after the
	// timeout event fired and was recycled; only cancel our own
	// generation.  Either way no timeout event of this Wait outlives
	// it, which is what lets the next Wait reuse timeoutFn.
	if p.woken && p.timeout != nil && p.timeout.gen == p.tgen {
		p.timeout.cancel()
	}
	return p.woken
}

// waitTimedOut is the timeout event of the Wait p is blocked in.
func (p *Proc) waitTimedOut() {
	if p.woken {
		return
	}
	p.waitQ.remove(p)
	p.sim.runProc(p)
}

func (q *WaitQ) remove(p *Proc) {
	w := &q.waiters
	for i := w.head; i < len(w.items); i++ {
		if w.items[i] == p {
			last := len(w.items) - 1
			copy(w.items[i:], w.items[i+1:])
			w.items[last] = nil
			w.items = w.items[:last]
			return
		}
	}
}

// WakeOne unblocks the longest-waiting process, if any, charging the
// scheduler's wakeup cost to h.  It reports whether a process was
// woken.  Safe from any context.
func (q *WaitQ) WakeOne(h *Host) bool {
	if q.waiters.len() == 0 {
		return false
	}
	q.wake(h, q.waiters.pop())
	return true
}

// WakeAll unblocks every waiting process.
func (q *WaitQ) WakeAll(h *Host) {
	for q.waiters.len() > 0 {
		q.wake(h, q.waiters.pop())
	}
}

func (q *WaitQ) wake(h *Host, p *Proc) {
	p.woken = true
	h.Counters.Wakeups++
	q.sim.Counters.Wakeups++
	if tr := q.sim.tracer; tr != nil {
		tr.Wakeup(q.sim.now, h.name)
	}
	// The woken process becomes runnable after the scheduler's
	// wakeup cost; the context switch itself is charged when the
	// CPU actually passes to it.
	q.sim.After(q.sim.costs.Wakeup, p.resumeFn)
}

// Len returns the number of blocked processes.
func (q *WaitQ) Len() int { return q.waiters.len() }
