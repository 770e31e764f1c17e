package main

// serve-small, serve-bulk: the full pfserve stack in one process on
// loopback — UDP wire, live device (8 ports, checked interpreter),
// JSON control socket.  Every frame is addressed to the last-scanned
// port and read back by one control connection.
//
// Capacity is a closed loop with W=128 frames outstanding: the
// injector blocks on the reader's count.  The round trip is W=1:
// Sender.Send start to Client.Read return, one goroutine.
//
// The untraced run uses live.Start, exactly what cmd/pfserve runs.
// The traced run assembles the same instance from NewDevice +
// ListenWire + Serve so that the wire-to-device boundary is a call the
// harness can time.

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/live"
	"repro/internal/pfdev"
	"repro/internal/trace"
)

const (
	servePorts = 8
	window     = 128
	// portQueue is each port's queue bound: above the window, so a
	// closed-loop run can never overflow it, and deep enough for the
	// control-read probe to pre-fill.
	portQueue = 4096
	// spanRing is the server's flight-recorder size, live.Start's default.
	spanRing = 1 << 15
)

// pktSlot carries one sampled packet's timestamps from the injector
// and the wire handler to whoever reads the packet back.
type pktSlot struct {
	seq, t0, t1, hIn, hOut atomic.Int64
}

type serve struct {
	cfg     config
	payload int
	t       tally

	dev    *live.Device
	wire   *live.Wire
	srv    *live.Server
	ctl    *live.Client // set-up, churn, stats
	rc     *live.Client // the one reader connection
	snd    *live.Sender
	hot    int // control-socket id of the last-scanned port
	pool   *pool
	cold   []filter.Filter
	nchurn int

	pos int
	seq uint64

	credits    chan int // reader -> injector: frames accounted for
	stopReader atomic.Bool
	sentCap    atomic.Uint64 // frames sent in the current capacity phase
	direct     uint64        // frames probes handed straight to Device.Input
	delivered  uint64        // frames read back over the control socket, whole run
	capReads   uint64        // non-empty capacity reads, whole run
	capPackets uint64

	// Span sampling: the wire handler stamps frames whose pool index
	// is a multiple of every (0 = off).
	every atomic.Int32
	slots []pktSlot
}

func newServe(cfg config) *serve {
	s := &serve{cfg: cfg, payload: 32}
	if cfg.workload == wServeBulk {
		s.payload = 512
	}
	return s
}

func (s *serve) tally() *tally { return &s.t }

func (s *serve) shares() (float64, float64, float64) { return 0.60, 0.30, 0.10 }

func serveOptions(tr *trace.Tracer) live.Options {
	return live.Options{Link: link, Mode: pfdev.EvalChecked, Tracer: tr}
}

func (s *serve) setup() error {
	const loopback = "127.0.0.1:0"
	if s.cfg.trace {
		tr := trace.New()
		tr.EnableSpans(trace.SpanConfig{Ring: spanRing})
		s.dev = live.NewDevice(serveOptions(tr))
		wire, err := live.ListenWire(loopback, s.timedHandler)
		if err != nil {
			return err
		}
		s.wire = wire
		ln, err := net.Listen("tcp", loopback)
		if err != nil {
			return err
		}
		s.srv = live.Serve(ln, s.dev, wire)
	} else {
		inst, err := live.Start(live.ServeConfig{CtlAddr: loopback, UDPAddr: loopback, Opt: serveOptions(nil)})
		if err != nil {
			return err
		}
		s.dev, s.wire, s.srv = inst.Dev, inst.Wire, inst.Ctl
	}
	var err error
	if s.ctl, err = live.DialControl(s.srv.Addr().String()); err != nil {
		return err
	}
	if s.rc, err = live.DialControl(s.srv.Addr().String()); err != nil {
		return err
	}
	if s.snd, err = live.DialWire(s.wire.Addr().String()); err != nil {
		return err
	}
	for i := 0; i < servePorts; i++ { // equal priority: scan order is open order
		if s.hot, err = s.ctl.Open(portQueue, false, false); err != nil {
			return fmt.Errorf("open port %d: %w", i, err)
		}
		if err = s.ctl.SetFilter(s.hot, portFilter(i)); err != nil {
			return fmt.Errorf("setfilter port %d: %w", i, err)
		}
	}
	s.pool = newPool(s.cfg.seed, servePorts, servePorts-1, s.payload, 0)
	if s.cfg.misaddress {
		s.pool.expect[0] = 0
	}
	s.cold = coldFilters()
	s.credits = make(chan int, 2*window) // one message per read, at most window frames unread
	s.slots = make([]pktSlot, poolSize)
	s.pos, s.direct, s.delivered = 0, 0, 0
	return nil
}

func (s *serve) teardown() {
	if s.snd != nil {
		s.snd.Close()
	}
	if s.rc != nil {
		s.rc.Close()
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
	// Wire first (no new frames), then the device (waking blocked
	// readers), then the control server — live.Instance.Close's order.
	if s.wire != nil {
		s.wire.Close()
	}
	if s.dev != nil {
		s.dev.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	*s = serve{cfg: s.cfg, payload: s.payload, t: s.t}
}

// timedHandler is the traced run's wire handler: Device.Input, with
// entry and exit stamped for sampled frames.
func (s *serve) timedHandler(frame []byte) {
	ev := int(s.every.Load())
	idx := -1
	if ev != 0 {
		idx = frameIndex(frame)
	}
	if idx < 0 || idx%ev != 0 {
		s.dev.Input(frame)
		return
	}
	sl := &s.slots[idx]
	sl.hIn.Store(now())
	s.dev.Input(frame)
	sl.hOut.Store(now())
}

// next returns the next pool frame and its index.
func (s *serve) next() (int, []byte) {
	idx := s.pos
	s.pos = (s.pos + 1) & (poolSize - 1)
	s.seq++
	return idx, s.pool.frames[idx]
}

// send puts one frame on the wire, stamping its slot when sampled.
func (s *serve) send(idx int, frame []byte, sampled bool) error {
	if !sampled {
		return s.snd.Send(frame)
	}
	sl := &s.slots[idx]
	sl.t1.Store(0)
	sl.hOut.Store(0)
	sl.seq.Store(int64(s.seq))
	sl.t0.Store(now())
	err := s.snd.Send(frame)
	sl.t1.Store(now())
	return err
}

// recordPacket turns a sampled packet's timestamps into spans: the
// root from send start to read return, and its four children.
func (s *serve) recordPacket(rec *recorder, root string, idx int, tRead int64) {
	sl := &s.slots[idx]
	var t1, hOut int64
	for spin := 0; spin < 1000; spin++ {
		// The reply can overtake the stamps by a few instructions.
		if t1, hOut = sl.t1.Load(), sl.hOut.Load(); t1 != 0 && hOut != 0 {
			break
		}
		runtime.Gosched()
	}
	if t1 == 0 || hOut == 0 || !rec.room(5) {
		return
	}
	t0, hIn, seq := sl.t0.Load(), sl.hIn.Load(), uint64(sl.seq.Load())
	id := rec.add(root, t0, tRead, 0, seq)
	rec.add(root+".send", t0, t1, id, seq)
	// On loopback the receiver can wake before Send returns; transit
	// is then zero and the two overlap.
	rec.add(root+".transit", t1, max(t1, hIn), id, seq)
	rec.add(root+".input", hIn, hOut, id, seq)
	rec.add(root+".handoff", hOut, max(hOut, tRead), id, seq)
}

// readerState is what one capacity phase's reader goroutine saw.
type readerState struct {
	delivered, reads, bad, lost uint64
	err                         error
}

// reader drains the hot port over the control socket until told to
// stop, returning credits to the injector for every frame accounted.
func (s *serve) reader(rec *recorder, st *readerState, done chan<- struct{}) {
	defer close(done)
	idle := 0
	for !s.stopReader.Load() {
		pkts, err := s.rc.Read(s.hot, 0, 10*time.Millisecond)
		tRead := now()
		if err != nil {
			st.err = err
			s.credits <- 1 << 30 // release the injector; the phase fails
			return
		}
		if len(pkts) == 0 {
			// Half a second of silence with frames outstanding: they
			// are lost (a kernel-shed datagram).  Account them as
			// failed and release their window slots.
			if idle++; idle >= 50 {
				if sent, seen := s.sentCap.Load(), st.delivered+st.lost; sent > seen {
					st.lost += sent - seen
					s.credits <- int(sent - seen)
				}
				idle = 0
			}
			continue
		}
		idle = 0
		for _, p := range pkts {
			if !s.pool.check(p, servePorts-1) {
				st.bad++
			}
			if rec != nil {
				if idx := frameIndex(p); idx >= 0 && idx%int(s.every.Load()) == 0 {
					s.recordPacket(rec, "pkt", idx, tRead)
				}
			}
		}
		st.delivered += uint64(len(pkts))
		st.reads++
		s.credits <- len(pkts)
	}
}

func (s *serve) capacity(dur time.Duration, rec *recorder, rd *roundData) {
	var st readerState
	done := make(chan struct{})
	s.stopReader.Store(false)
	s.sentCap.Store(0)
	if rec != nil {
		s.every.Store(64)
	}
	wire0 := s.wire.Stats().Received
	go s.reader(rec, &st, done)

	credit := window
	var n uint64
	var occ float64
	start := now()
	for n&15 != 0 || now()-start < int64(dur) {
		if credit == 0 {
			credit += <-s.credits
		}
		occ += float64(window - credit)
		idx, frame := s.next()
		if err := s.send(idx, frame, rec != nil && idx%64 == 0); err != nil {
			s.t.fail(1, "send: %v", err)
			break
		}
		s.sentCap.Add(1)
		credit--
		n++
	}
	for credit < window {
		credit += <-s.credits
	}
	elapsed := now() - start
	s.stopReader.Store(true)
	<-done
	s.every.Store(0)

	rd.packets += n
	rd.bytes += st.delivered * uint64(s.payload)
	rd.elapsed += elapsed
	rd.occSum += occ / window
	rd.occN += float64(n)
	s.t.attempted += n
	s.delivered += st.delivered
	s.capReads += st.reads
	s.capPackets += st.delivered

	if st.err != nil {
		s.t.fail(n-st.delivered, "reader: %v", st.err)
	}
	if st.bad != 0 {
		s.t.fail(st.bad, "%d frames came back altered or on the wrong port", st.bad)
	}
	if got := s.wire.Stats().Received - wire0; st.lost != 0 || got != n {
		s.t.fail(max(st.lost, absDiff(got, n)),
			"capacity round: sent %d, wire received %d, reader got %d: the kernel shed datagrams", n, got, st.delivered)
	}
}

func (s *serve) pingpong(dur time.Duration, rec *recorder, rd *roundData) {
	if rec != nil {
		s.every.Store(1)
		defer s.every.Store(0)
	}
	start := now()
	for now()-start < int64(dur) {
		idx, frame := s.next()
		s.t.attempted++
		t0 := now()
		err := s.send(idx, frame, rec != nil)
		if err != nil {
			s.t.fail(1, "ping-pong send: %v", err)
			continue
		}
		pkts, err := s.rc.Read(s.hot, 0, time.Second)
		t2 := now()
		if err != nil || len(pkts) != 1 || !s.pool.check(pkts[0], servePorts-1) {
			s.t.fail(1, "ping-pong: frame %d did not come back intact (err %v, %d packets)", idx, err, len(pkts))
			if err != nil {
				return // the control connection is gone
			}
			s.delivered += uint64(len(pkts))
			continue
		}
		s.delivered++
		rd.rtt = append(rd.rtt, t2-t0)
		if rec != nil {
			s.recordPacket(rec, "rtt", idx, t2)
		}
	}
}

func (s *serve) churn(dur time.Duration, rec *recorder, rd *roundData) {
	start := now()
	for now()-start < int64(dur) {
		f := s.cold[s.nchurn%len(s.cold)]
		s.nchurn++
		s.t.attempted++
		t0 := now()
		id, err := s.ctl.Open(0, false, false)
		t1 := now()
		if err == nil {
			err = s.ctl.SetFilter(id, f)
		}
		t2 := now()
		if err == nil {
			err = s.ctl.ClosePort(id)
		}
		t3 := now()
		if err != nil {
			s.t.fail(1, "churn over the control socket: %v", err)
			return
		}
		rd.churn = append(rd.churn, t3-t0)
		if rec != nil {
			rec.addChurn(uint64(s.nchurn), t0, t1, t2, t3)
		}
	}
}

// finish reconciles every layer's counters exactly, as live.RunLoad
// does for a paced run:
//
//	frames sent == wire received; wire received + direct == device received == spans created
//	created == delivered to users + typed drops, none live
//	delivered == frames the harness read back
func (s *serve) finish() {
	st, err := s.ctl.Stats()
	if err != nil {
		s.t.fail(1, "final stats: %v", err)
		return
	}
	sent := s.snd.Sent.Load()
	s.t.attempted++ // the reconciliation itself
	eq := func(what string, got, want uint64) {
		if got != want {
			s.t.fail(absDiff(got, want), "%s: %d, want %d", what, got, want)
		}
	}
	if st.Wire == nil || st.Spans == nil {
		s.t.fail(1, "stats block lacks the wire or span section")
		return
	}
	eq("wire received", st.Wire.Received, sent)
	eq("device received", st.Device.Received, sent+s.direct)
	eq("kernel drops", st.Device.KernelDrops, 0)
	eq("spans created", st.Spans.Created, sent+s.direct)
	eq("spans live", st.Spans.Live, 0)
	eq("delivered + typed drops", st.Spans.DeliveredUser+st.Spans.TotalDrops, st.Spans.Created)
	eq("spans delivered", st.Spans.DeliveredUser, s.delivered)
	var matched, dropped uint64
	for _, ps := range st.Ports {
		matched += ps.Matched
		dropped += ps.Dropped
		if ps.ID != s.hot && ps.Matched != 0 {
			s.t.fail(ps.Matched, "port %d matched %d frames addressed to port %d", ps.ID, ps.Matched, s.hot)
		}
	}
	eq("port overflow drops", dropped, 0)
	eq("matched", matched, s.delivered+uint64(st.Device.QueuedNow))
	eq("queued at the end", uint64(st.Device.QueuedNow), 0)
	eq("ports open at the end", uint64(len(st.Ports)), servePorts)
}
