package sim

// Pipe models a 4.3BSD pipe carrying discrete messages between two
// processes on one host.  The paper's user-level demultiplexer
// baseline forwards each received packet to its destination process
// through such a pipe (§6.3, §6.5.3); the cost is two extra
// kernel/user copies plus the pipe bookkeeping overhead ("much of
// this is attributable to the poor IPC facilities in 4.3BSD").
type Pipe struct {
	host    *Host
	cap     int
	buf     fifo[[]byte]
	readers *WaitQ
	writers *WaitQ
}

// NewPipe creates a pipe on host h buffering at most capacity
// messages.
func (s *Sim) NewPipe(h *Host, capacity int) *Pipe {
	if capacity < 1 {
		capacity = 1
	}
	return &Pipe{host: h, cap: capacity, readers: s.NewWaitQ(), writers: s.NewWaitQ()}
}

// Write sends one message down the pipe: a write system call plus a
// user-to-kernel copy.  It blocks while the pipe is full.
func (p *Proc) Write(pipe *Pipe, msg []byte) {
	p.Syscall("pipe")
	p.ConsumeKernel("pipe", p.sim.costs.Pipe)
	for pipe.buf.len() >= pipe.cap {
		p.Wait(pipe.writers, 0)
	}
	p.CopyIn("pipe", len(msg))
	pipe.buf.push(append([]byte(nil), msg...))
	pipe.readers.WakeOne(pipe.host)
}

// Read receives one message: a read system call plus a kernel-to-user
// copy.  It blocks while the pipe is empty.
func (p *Proc) Read(pipe *Pipe) []byte {
	p.Syscall("pipe")
	for pipe.buf.len() == 0 {
		p.Wait(pipe.readers, 0)
	}
	msg := pipe.buf.pop()
	p.CopyOut("pipe", len(msg))
	pipe.writers.WakeOne(pipe.host)
	return msg
}

// Len returns the number of buffered messages.
func (pipe *Pipe) Len() int { return pipe.buf.len() }
