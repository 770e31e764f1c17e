package main

// sim-receive: the virtual-time receive rig built from public API —
// sim.New, ethersim.New, two hosts, pfdev.Attach with the checked
// interpreter, one reader process per port doing ReadBatch — driven
// with the s6.1 paper mix at a pace with no overflow.  What is
// measured is wall time per simulated frame; the virtual numbers are
// exact and reported from a fixed-count run so they repeat to the bit.

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/workload"
)

const (
	simPorts = 16
	// simInterval paces the paper mix: above the ~3 mSec of virtual
	// CPU the receiver spends on a frame no filter accepts, so no
	// queue ever overflows.
	simInterval = 4 * time.Millisecond
	// simStep is the W=1 and churn window: one operation, then quiet.
	simStep = 20 * time.Millisecond
	// simReadTimeout is how long a reader process blocks before it
	// looks at the stop flag; long, so idle wake-ups stay out of the
	// measured windows.
	simReadTimeout = 2 * time.Second
)

// simRig is one simulated universe.  The procs and the harness take
// turns on the simulator's event loop, which orders every access to
// the shared fields below.
type simRig struct {
	s         *sim.Sim
	hA, hB    *sim.Host
	nicA      *ethersim.NIC
	dev       *pfdev.Device
	bound     int           // ports bound; the generator addresses the same sockets
	interval  time.Duration // pace of the paper mix
	ports     []*pfdev.Port
	gen, pgen *workload.Generator // paper mix; all-Pup for the W=1 phase
	cold      []filter.Filter

	active      int  // phase procs still running
	stopPhase   bool // tells the phase's proc to exit
	stopReaders bool

	sent, sentPup, sentHash         uint64
	delivered, bytes, deliveredHash uint64
	bad, churned                    uint64
}

// frameHash is FNV-1a, inline so the measured loop does not allocate
// a hash.Hash per frame.
func frameHash(f []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range f {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// newSimRig builds the rig and runs it until every port is bound.
func newSimRig(seed int64, bound int, tr *trace.Tracer) *simRig {
	r := &simRig{s: sim.New(vtime.DefaultCosts()), bound: bound, interval: simInterval, cold: coldFilters()}
	if bound > simPorts {
		// A longer scan costs more virtual CPU per frame; keep the pace below it.
		r.interval = simInterval * time.Duration(bound) / simPorts
	}
	if tr != nil {
		r.s.SetTracer(tr)
	}
	net := ethersim.New(r.s, link)
	r.hA, r.hB = r.s.NewHost("A"), r.s.NewHost("B")
	r.nicA = net.Attach(r.hA, 1)
	r.dev = pfdev.Attach(net.Attach(r.hB, 2), pfdev.Chain(), pfdev.Options{Mode: pfdev.EvalChecked})

	nsock := bound
	if nsock == 0 {
		nsock = simPorts // traffic for ports nobody bound
	}
	sockets := make([]uint32, nsock)
	for i := range sockets {
		sockets[i] = uint32(baseSocket + i)
	}
	r.gen = workload.NewGenerator(seed, link, workload.PaperMix(), sockets)
	r.pgen = workload.NewGenerator(seed+1, link, workload.Mix{PctPF: 100}, sockets)
	r.ports = make([]*pfdev.Port, bound)
	for i := 0; i < bound; i++ {
		r.s.Spawn(r.hB, fmt.Sprintf("reader-%d", i), r.reader(i, sockets[i]))
	}
	r.s.RunFor(time.Duration(10+3*bound) * time.Millisecond)
	return r
}

// reader is one port's process: open, bind the socket filter, then
// ReadBatch until told to stop, checking every packet.
func (r *simRig) reader(i int, socket uint32) func(*sim.Proc) {
	return func(p *sim.Proc) {
		port := r.dev.Open(p)
		r.ports[i] = port
		if err := port.SetFilter(p, pup.SocketFilter(link, 10, socket)); err != nil {
			r.bad++
			return
		}
		port.SetTimeout(p, simReadTimeout)
		sockAt := link.HeaderLen() + 10
		overhead := link.HeaderLen() + pup.HeaderLen + pup.ChecksumLen
		for {
			batch, err := port.ReadBatch(p)
			if err == pfdev.ErrTimeout {
				if r.stopReaders {
					return
				}
				continue
			}
			if err != nil {
				return
			}
			for _, pkt := range batch {
				if len(pkt.Data) < overhead || binary.BigEndian.Uint32(pkt.Data[sockAt:]) != socket {
					r.bad++ // on a port it was not addressed to
					continue
				}
				r.delivered++
				r.bytes += uint64(len(pkt.Data) - overhead)
				r.deliveredHash += frameHash(pkt.Data)
			}
		}
	}
}

// transmit sends one generated frame from host A, keeping the
// harness's side of the conservation account.
func (r *simRig) transmit(g *workload.Generator) {
	f := g.Frame(2, 1)
	r.sent++
	if g.LastClass == "pup" && r.bound > 0 {
		r.sentPup++
		r.sentHash += frameHash(f)
	}
	if err := r.nicA.Transmit(f); err != nil {
		r.bad++
	}
}

// phase spawns body as a process on host h and gives it the sim until
// wall time d has passed (d 0: until body returns on its own), then
// tells it to stop and runs the sim until it has.  step is how much
// virtual time each turn of the event loop advances; each turn is
// handed to perTurn with its wall duration.
func (r *simRig) phase(h *sim.Host, name string, d time.Duration, step time.Duration,
	body func(*sim.Proc), perTurn func(wallNS int64)) (wallNS int64) {
	r.active++
	r.stopPhase = false
	r.s.Spawn(h, name, func(p *sim.Proc) {
		body(p)
		r.active--
	})
	start := now()
	for r.active > 0 && (d == 0 || now()-start < int64(d)) {
		t0 := now()
		r.s.RunFor(step)
		if perTurn != nil {
			perTurn(now() - t0)
		}
	}
	r.stopPhase = true
	for r.active > 0 {
		r.s.RunFor(step)
	}
	return now() - start
}

// drive sends the paper mix, one frame every interval, until the
// phase ends or limit frames have gone (0: no limit).
func (r *simRig) drive(d time.Duration, limit uint64, perTurn func(int64)) (frames uint64, wallNS int64) {
	sent0 := r.sent
	wallNS = r.phase(r.hA, "traffic", d, 64*r.interval, func(p *sim.Proc) {
		for !r.stopPhase && (limit == 0 || r.sent-sent0 < limit) {
			r.transmit(r.gen)
			p.Sleep(r.interval)
		}
	}, perTurn)
	return r.sent - sent0, wallNS
}

// settle lets the frames still in flight reach their readers.
func (r *simRig) settle() { r.s.RunFor(100 * time.Millisecond) }

// stop ends the reader processes and waits for them.
func (r *simRig) stop() {
	r.stopReaders = true
	r.s.RunFor(simReadTimeout + simStep)
}

// reconcile checks the rig's conservation law after settle: every Pup
// frame sent to a bound socket was read back byte-identical by that
// socket's reader, every other frame was a typed kernel drop, and no
// queue overflowed.
func (r *simRig) reconcile(t *tally) {
	t.attempted++
	eq := func(what string, got, want uint64) {
		if got != want {
			t.fail(absDiff(got, want), "sim: %s: %d, want %d", what, got, want)
		}
	}
	eq("frames received by host B", r.hB.Counters.PacketsIn, r.sent)
	eq("frames delivered to readers", r.delivered, r.sentPup)
	eq("delivered-frame hash sum", r.deliveredHash, r.sentHash)
	eq("frames on the wrong port", r.bad, 0)
	eq("packets matched", r.hB.Counters.PacketsMatched, r.sentPup)
	eq("kernel drops", r.dev.KernelDrops, r.sent-r.sentPup)
	var dropped uint64
	for _, port := range r.ports {
		if port != nil {
			dropped += port.Stats().Dropped
		}
	}
	eq("port overflow drops", dropped, 0)
}

// simBench is the workload around one rig.
type simBench struct {
	cfg config
	rig *simRig
	t   tally
}

func newSimBench(cfg config) *simBench { return &simBench{cfg: cfg} }

func (b *simBench) tally() *tally { return &b.t }

func (b *simBench) shares() (float64, float64, float64) { return 0.75, 0.15, 0.10 }

func (b *simBench) setup() error {
	b.rig = newSimRig(b.cfg.seed, simPorts, nil)
	if b.cfg.misaddress {
		b.rig.sentPup++ // the harness now expects a frame nobody sent
	}
	for i, port := range b.rig.ports {
		if port == nil {
			return fmt.Errorf("reader %d never opened its port", i)
		}
	}
	return nil
}

func (b *simBench) teardown() {
	if b.rig != nil {
		b.rig.stop()
		b.rig = nil
	}
}

func (b *simBench) capacity(d time.Duration, rec *recorder, rd *roundData) {
	r := b.rig
	bytes0 := r.bytes
	var turn uint64
	var perTurn func(int64)
	if rec != nil {
		perTurn = func(wallNS int64) {
			turn++
			end := now()
			rec.add("sim.turn", end-wallNS, end, 0, turn)
		}
	}
	frames, wallNS := r.drive(d, 0, perTurn)
	rd.packets += frames
	rd.bytes += r.bytes - bytes0
	rd.elapsed += wallNS
	b.t.attempted += frames
}

// pingpong is W=1 in the simulator's terms: one Pup frame sent into an
// otherwise quiet rig, the sim advanced until its reader has it, and
// the wall time that took.
func (b *simBench) pingpong(d time.Duration, rec *recorder, rd *roundData) {
	r := b.rig
	r.settle()
	sent0, got0 := r.sent, r.delivered
	warm := true
	var seq uint64
	r.phase(r.hA, "pingpong", d, simStep, func(p *sim.Proc) {
		for !r.stopPhase {
			r.transmit(r.pgen)
			p.Sleep(simStep)
		}
	}, func(wallNS int64) {
		if warm { // the first turn also starts the process
			warm = false
			return
		}
		rd.rtt = append(rd.rtt, wallNS)
		if seq++; rec != nil {
			end := now()
			rec.add("rtt", end-wallNS, end, 0, seq)
		}
	})
	r.settle()
	n := r.sent - sent0
	b.t.attempted += n
	if got := r.delivered - got0; got != n {
		b.t.fail(absDiff(got, n), "sim ping-pong: sent %d, readers got %d", n, got)
	}
}

// churn times one open+setfilter+close by a process on the receiving
// host, one per turn of an otherwise quiet rig.
func (b *simBench) churn(d time.Duration, rec *recorder, rd *roundData) {
	r := b.rig
	warm := true
	done0 := r.churned
	r.phase(r.hB, "churn", d, simStep, func(p *sim.Proc) {
		for !r.stopPhase {
			port := r.dev.Open(p)
			if err := port.SetFilter(p, r.cold[r.churned%uint64(len(r.cold))]); err != nil {
				r.bad++
			}
			port.Close(p)
			r.churned++
			p.Sleep(simStep)
		}
	}, func(wallNS int64) {
		if warm {
			warm = false
			return
		}
		rd.churn = append(rd.churn, wallNS)
		if rec != nil {
			end := now()
			rec.add("churn", end-wallNS, end, 0, r.churned)
		}
	})
	b.t.attempted += r.churned - done0
}

func (b *simBench) finish() {
	r := b.rig
	r.settle()
	r.reconcile(&b.t)
	b.checkPinned()
}
