//go:build go1.23

// The build line lifts this file to go1.23 for the iter package; go.mod
// stays at go 1.22 because the benchmark module's go.mod says 1.22.

package sim

import (
	"iter"
	"time"
)

// Proc is one simulated user process.  All its methods except Name
// must be called from the process's own body (inside the function
// passed to Spawn).
type Proc struct {
	sim  *Sim
	host *Host
	name string
	done bool

	// next resumes the body until its next yield (a park) and reports
	// false once the body has returned; see runProc.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// blocked records that the process slept on a wait queue since
	// its last CPU grant; the next grant charges a context switch
	// even if no other process ran meanwhile ("in the best case the
	// receiving process will never be suspended, and no context
	// switches take place" — §6.5.1; once it does suspend, resuming
	// it costs a switch).
	blocked bool

	// resumeFn is the event that resumes this process, bound once so
	// Sleep, Yield and wakeups schedule it without allocating.
	resumeFn func()

	// Wait state.  A process blocks on at most one queue at a time, so
	// the waiter record and its timeout callback live here.
	waitQ     *WaitQ
	woken     bool
	timeout   *event
	tgen      uint64 // generation of timeout when armed (events are pooled)
	timeoutFn func()
}

// Spawn creates a process on host h running fn.  The process starts
// when the event loop next runs.  Spawn may be called from any
// context.
func (s *Sim) Spawn(h *Host, name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, host: h, name: name}
	p.resumeFn = func() { s.runProc(p) }
	p.timeoutFn = p.waitTimedOut
	// The stop function is dropped: a process that never returns stays
	// parked for the life of the program.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	s.schedule(p)
	return p
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Host returns the host the process runs on.
func (p *Proc) Host() *Host { return p.host }

// Sim returns the owning simulation.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// park switches back to the event that resumed this process; it
// returns when an event resumes it again.
func (p *Proc) park() {
	if p.sim.current != p {
		panic("sim: park from wrong context")
	}
	p.yield(struct{}{})
}

// Consume charges d of user-mode CPU time, competing with other work
// on this host's processor.
func (p *Proc) Consume(d time.Duration) {
	p.sim.assertProc("Consume")
	p.host.requestCPU(p, d, "user")
}

// ConsumeKernel charges d of kernel-mode CPU on behalf of this
// process (the kernel half of a system call), accounted under tag.
func (p *Proc) ConsumeKernel(tag string, d time.Duration) {
	p.sim.assertProc("ConsumeKernel")
	p.host.requestCPU(p, d, tag)
}

// Sleep suspends the process for d of virtual time without consuming
// CPU.
func (p *Proc) Sleep(d time.Duration) {
	p.sim.assertProc("Sleep")
	p.sim.After(d, p.resumeFn)
	p.park()
}

// Yield gives up the processor momentarily (other runnable work at the
// current instant proceeds first).
func (p *Proc) Yield() {
	p.sim.assertProc("Yield")
	p.sim.schedule(p)
	p.park()
}

// Syscall accounts one kernel entry/exit: the fixed trap cost plus the
// bookkeeping counters (one system call, two domain crossings).  The
// work done inside the kernel is charged separately by the caller.
func (p *Proc) Syscall(tag string) {
	p.sim.assertProc("Syscall")
	h := p.host
	h.Counters.Syscalls++
	h.Counters.DomainCrossings += 2
	p.sim.Counters.Syscalls++
	p.sim.Counters.DomainCrossings += 2
	if tr := p.sim.tracer; tr != nil {
		tr.SyscallEnter(p.sim.now, h.name, p.name, tag)
	}
	p.ConsumeKernel(tag, p.sim.costs.Syscall)
	if tr := p.sim.tracer; tr != nil {
		tr.SyscallExit(p.sim.now, h.name, p.name, tag)
	}
}

// CopyIn charges moving n bytes from user space into the kernel.
func (p *Proc) CopyIn(tag string, n int) { p.copy(tag, n) }

// CopyOut charges moving n bytes from the kernel to user space.
func (p *Proc) CopyOut(tag string, n int) { p.copy(tag, n) }

func (p *Proc) copy(tag string, n int) {
	p.sim.assertProc("Copy")
	h := p.host
	h.Counters.Copies++
	h.Counters.BytesCopied += uint64(n)
	p.sim.Counters.Copies++
	p.sim.Counters.BytesCopied += uint64(n)
	if tr := p.sim.tracer; tr != nil {
		tr.Copy(p.sim.now, h.name, p.name, tag, n)
	}
	p.ConsumeKernel(tag, p.sim.costs.Copy(n))
}

// Mapped records n bytes delivered through a shared-memory mapping
// without crossing the kernel/user boundary: the counterfactual the
// paper could not build ("Unix does not support memory sharing", §2).
// No copy time is charged — that is the point — but the bytes are
// accounted so experiments can report bytes-mapped against
// bytes-copied.
func (p *Proc) Mapped(tag string, n int) {
	p.sim.assertProc("Mapped")
	h := p.host
	h.Counters.BytesMapped += uint64(n)
	p.sim.Counters.BytesMapped += uint64(n)
	if tr := p.sim.tracer; tr != nil {
		tr.Mapped(p.sim.now, h.name, p.name, tag, n)
	}
}
