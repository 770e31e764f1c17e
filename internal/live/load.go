package live

// The load driver behind `pfserve -selftest` and cmd/pfload: it
// exercises a running pfserve entirely from outside — ports opened and
// filters bound over the control socket, frames injected over the
// loopback-UDP wire, packets drained by concurrent control-socket readers
// — and then reconciles every layer's counters exactly.  The
// conservation argument is the PR-6 span invariant carried into live
// mode:
//
//	frames sent == wire received == spans created
//	created     == delivered-to-users + typed drops   (live == 0)
//	delivered   == frames the readers actually got
//
// UDP loopback is lossless in practice at the paced rates used here;
// if the kernel does shed (socket-buffer overflow under extreme
// contention), the reconciliation fails loudly rather than fudging.

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/ethersim"
	"repro/internal/pup"
	"repro/internal/workload"
)

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Packets is how many frames to inject (default 10000).
	Packets int
	// Ports is the receiving port population (default 8).
	Ports int
	// Seed feeds the deterministic traffic generator.
	Seed int64
	// Link is the frame geometry (must match the server's).
	Link ethersim.LinkType
	// Profile selects the generator: "mix" (the §6.1 composition —
	// non-Pup shares become kernel drops) or "heavytail"
	// (bounded-Pareto Pup flows; every frame matches some port).
	Profile string
	// Flows is how many distinct link-level source addresses the
	// injector cycles through (default 1).  The filters never look at
	// the link source, so the demux outcome is flow-count independent;
	// more flows let a multi-queue server (pfserve -queues) spread the
	// load across its receive queues.
	Flows int
	// PaceEvery/Pace: sleep Pace after every PaceEvery frames so the
	// loopback socket buffer never overflows (defaults 64 / 1ms).
	PaceEvery int
	Pace      time.Duration
	// QueueLimit is the per-port input-queue bound (default 4096).
	QueueLimit int
	// DrainTimeout bounds the post-send settling wait (default 30s).
	DrainTimeout time.Duration
}

func (cfg LoadConfig) withDefaults() LoadConfig {
	if cfg.Packets <= 0 {
		cfg.Packets = 10000
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 8
	}
	if cfg.Profile == "" {
		cfg.Profile = "mix"
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	if cfg.PaceEvery <= 0 {
		cfg.PaceEvery = 64
	}
	if cfg.Pace <= 0 {
		cfg.Pace = time.Millisecond
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 4096
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	return cfg
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Sent      uint64        // frames written to the wire
	Delivered uint64        // frames the control-socket readers drained
	PerPort   []uint64      // reader deliveries per port (port-list order)
	SendTime  time.Duration // wall time of the injection phase
	TotalTime time.Duration // injection + settle + drain
	Stats     *StatsReport  // the server's final statistics block
	Errors    []string      // reconciliation failures (empty on success)
}

// Rate returns the end-to-end packets/second over the whole run.
func (r *LoadReport) Rate() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return float64(r.Sent) / r.TotalTime.Seconds()
}

// SendRate returns packets/second of the injection phase alone.
func (r *LoadReport) SendRate() float64 {
	if r.SendTime <= 0 {
		return 0
	}
	return float64(r.Sent) / r.SendTime.Seconds()
}

// sleep blocks for d on the given clock — the wall-clock-free way to
// pace inside internal/ (clock.Wall's AfterFunc is the only real-time
// primitive in play).
func sleep(clk clock.Clock, d time.Duration) {
	ch := make(chan struct{})
	clk.AfterFunc(d, func() { close(ch) })
	<-ch
}

// frameSource is either traffic generator, behind one method.
type frameSource interface {
	Frame(dst, src ethersim.Addr) []byte
}

// RunLoad drives a pfserve at ctlAddr/udpAddr with cfg and returns the
// reconciled report.  Transport or protocol failures return an error;
// counter mismatches come back in Report.Errors so the caller can
// print the full report before failing.
func RunLoad(ctlAddr, udpAddr string, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	clk := clock.NewWall()
	rep := &LoadReport{PerPort: make([]uint64, cfg.Ports)}

	ctl, err := DialControl(ctlAddr)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	defer ctl.Close()
	if err := ctl.Ping(); err != nil {
		return nil, fmt.Errorf("ping: %w", err)
	}

	// One port per socket, bound to the standard Pup socket-demux
	// filter — the same programs every simulated experiment binds.
	sockets := make([]uint32, cfg.Ports)
	portIDs := make([]int, cfg.Ports)
	for i := range sockets {
		sockets[i] = uint32(0x100 + i)
		id, err := ctl.Open(cfg.QueueLimit, false, false)
		if err != nil {
			return nil, fmt.Errorf("open port %d: %w", i, err)
		}
		portIDs[i] = id
		if err := ctl.SetFilter(id, pup.SocketFilter(cfg.Link, 10, sockets[i])); err != nil {
			return nil, fmt.Errorf("setfilter port %d: %w", i, err)
		}
	}

	// Concurrent readers, one control connection each, so reads on one
	// port never head-of-line block another.
	stop := make(chan struct{})
	readerDone := make(chan error, cfg.Ports)
	for i := range portIDs {
		go func(slot, id int) {
			rc, err := DialControl(ctlAddr)
			if err != nil {
				readerDone <- fmt.Errorf("reader %d dial: %w", slot, err)
				return
			}
			defer rc.Close()
			for {
				pkts, err := rc.Read(id, 0, 50*time.Millisecond)
				if err != nil {
					readerDone <- fmt.Errorf("reader %d: %w", slot, err)
					return
				}
				rep.PerPort[slot] += uint64(len(pkts))
				if len(pkts) == 0 {
					select {
					case <-stop:
						readerDone <- nil
						return
					default:
					}
				}
			}
		}(i, portIDs[i])
	}

	// Injection: frames go out over the loopback-UDP wire, verbatim.
	sender, err := DialWire(udpAddr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	defer sender.Close()

	var src frameSource
	switch cfg.Profile {
	case "heavytail":
		src = workload.NewFlowGen(cfg.Seed, cfg.Link, sockets)
	default:
		gen := workload.NewGenerator(cfg.Seed, cfg.Link, workload.PaperMix(), sockets)
		gen.SocketBias = 0.4
		src = gen
	}

	start := clk.Now()
	for i := 0; i < cfg.Packets; i++ {
		if err := sender.Send(src.Frame(2, ethersim.Addr(1+i%cfg.Flows))); err != nil {
			return nil, fmt.Errorf("send %d: %w", i, err)
		}
		if (i+1)%cfg.PaceEvery == 0 {
			sleep(clk, cfg.Pace)
		}
	}
	// Sent is final only once the Sender's last batch is written.
	if err := sender.Flush(); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	rep.Sent = sender.Sent.Load()
	rep.SendTime = clk.Now() - start

	// Settle: wait until every injected frame is accounted for — spans
	// created match the send count and none is still live (readers are
	// draining concurrently).  A reader that fails mid-run (its control
	// connection died) aborts the wait immediately instead of sitting
	// out the drain timeout against a server that is already gone.
	deadline := clk.Now() + cfg.DrainTimeout
	for {
		select {
		case rerr := <-readerDone:
			if rerr != nil {
				close(stop)
				return nil, rerr
			}
		default:
		}
		st, err := ctl.Stats()
		if err != nil {
			close(stop)
			return nil, fmt.Errorf("stats: %w", err)
		}
		rep.Stats = st
		if st.Spans != nil && st.Spans.Created == rep.Sent && st.Spans.Live == 0 {
			break
		}
		if clk.Now() > deadline {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"drain timeout: sent %d, spans created %d, live %d",
				rep.Sent, spansCreated(st), spansLive(st)))
			break
		}
		sleep(clk, 20*time.Millisecond)
	}

	close(stop)
	for range portIDs {
		if err := <-readerDone; err != nil {
			return nil, err
		}
	}
	// Readers have stopped; one final stats fetch after the last reads.
	st, err := ctl.Stats()
	if err != nil {
		return nil, fmt.Errorf("final stats: %w", err)
	}
	rep.Stats = st
	rep.TotalTime = clk.Now() - start
	for _, n := range rep.PerPort {
		rep.Delivered += n
	}
	rep.reconcile(cfg)
	return rep, nil
}

func spansCreated(st *StatsReport) uint64 {
	if st == nil || st.Spans == nil {
		return 0
	}
	return st.Spans.Created
}

func spansLive(st *StatsReport) uint64 {
	if st == nil || st.Spans == nil {
		return 0
	}
	return st.Spans.Live
}

// reconcile cross-checks every layer's counters exactly.
func (r *LoadReport) reconcile(cfg LoadConfig) {
	st := r.Stats
	fail := func(format string, args ...any) {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
	if st == nil {
		fail("no statistics block")
		return
	}
	if uint64(cfg.Packets) != r.Sent {
		fail("sent %d of %d requested frames", r.Sent, cfg.Packets)
	}
	if st.Wire == nil {
		fail("no wire statistics")
	} else if st.Wire.Received != r.Sent {
		fail("UDP loss: sent %d, wire received %d", r.Sent, st.Wire.Received)
	}
	if st.Device.Received != r.Sent {
		fail("device received %d of %d frames", st.Device.Received, r.Sent)
	}
	if st.Spans == nil {
		fail("no span statistics")
		return
	}
	sp := st.Spans
	if sp.Created != r.Sent {
		fail("spans created %d != sent %d", sp.Created, r.Sent)
	}
	if sp.Live != 0 {
		fail("%d spans still live after drain", sp.Live)
	}
	if sp.DeliveredUser+sp.TotalDrops != sp.Created {
		fail("conservation broken: %d delivered + %d dropped != %d created",
			sp.DeliveredUser, sp.TotalDrops, sp.Created)
	}
	if r.Delivered != sp.DeliveredUser {
		fail("readers drained %d, spans say %d delivered", r.Delivered, sp.DeliveredUser)
	}
	var matched, portDrops uint64
	for _, ps := range st.Ports {
		matched += ps.Matched
		portDrops += ps.Dropped
	}
	if matched != r.Delivered+portDrops+uint64(st.Device.QueuedNow) {
		fail("port accounting: %d matched != %d delivered + %d overflow-dropped + %d queued",
			matched, r.Delivered, portDrops, st.Device.QueuedNow)
	}
	if sp.DeliveredUser+st.Device.KernelDrops+portDrops != sp.Created {
		fail("drop split: %d delivered + %d kernel drops + %d port drops != %d created",
			sp.DeliveredUser, st.Device.KernelDrops, portDrops, sp.Created)
	}
}
