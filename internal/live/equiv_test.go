package live

// Mode equivalence: the live device must be the simulated device with
// the clock swapped out.  Feeding the identical filter set and packet
// sequence through both must produce identical verdicts, per-port
// counters and drop reasons — field by field, not timing.  This is the
// contract that makes live measurements comparable to simulated ones.

import (
	"bytes"
	"fmt"
	"testing"
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

// equivOutcome is everything both modes must agree on.
type equivOutcome struct {
	kernelDrops uint64
	created     uint64
	delivered   uint64
	drops       [trace.NumDropReasons]uint64
	ports       []portOutcome
}

type portOutcome struct {
	id      int
	matched uint64
	instrs  uint64
	dropped uint64
	frames  [][]byte // drained packet data, in queue order
}

const (
	equivPorts   = 4
	equivPackets = 300
	// Port 0's queue is squeezed so overflow drops are exercised on
	// both sides; the rest hold everything.
	equivSmallQueue = 5
)

func equivFrames(seed int64, link ethersim.LinkType, sockets []uint32) [][]byte {
	// 70% Pup across the socket population, 30% unclassifiable — the
	// latter exercise the no-match path (no ARP: broadcasts would pull
	// the source host's own NIC into the virtual run).
	gen := workload.NewGenerator(seed, link, workload.Mix{PctPF: 70}, sockets)
	gen.SocketBias = 0.4
	frames := make([][]byte, equivPackets)
	for i := range frames {
		frames[i] = gen.Frame(2, 1)
	}
	return frames
}

// runVirtual pushes the frame sequence through the full simulated
// stack: virtual Ethernet, NIC, pfdev.
func runVirtual(t *testing.T, mode pfdev.EvalMode, monitor bool,
	link ethersim.LinkType, sockets []uint32, frames [][]byte) equivOutcome {
	t.Helper()
	tr := trace.New()
	sp := tr.EnableSpans(trace.SpanConfig{Ring: 1 << 13})
	s := sim.New(vtime.DefaultCosts())
	s.SetTracer(tr)
	net := ethersim.New(s, link)
	src := s.NewHost("src")
	recv := s.NewHost("recv")
	nicSrc := net.Attach(src, 1)
	nicRecv := net.Attach(recv, 2)
	dev := pfdev.Attach(nicRecv, nil, pfdev.Options{Mode: mode, Reorder: true})

	var ports []*pfdev.Port
	s.Spawn(recv, "setup", func(p *sim.Proc) {
		for i, sock := range sockets {
			port := dev.Open(p)
			limit := len(frames) + 1
			if i == 0 {
				limit = equivSmallQueue
			}
			port.SetQueueLimit(p, limit)
			port.SetTimeout(p, -1)
			if err := port.SetFilter(p, pup.SocketFilter(link, 10, sock)); err != nil {
				t.Errorf("virtual setfilter %d: %v", i, err)
			}
			ports = append(ports, port)
		}
		if monitor {
			mon := dev.Open(p)
			mon.SetQueueLimit(p, len(frames)+1)
			mon.SetTimeout(p, -1)
			mon.SetCopyAll(p, true)
			if err := mon.SetFilter(p, filter.Filter{Priority: 200}); err != nil {
				t.Errorf("virtual monitor filter: %v", err)
			}
			ports = append(ports, mon)
		}
	})
	s.Run(0)

	s.Spawn(src, "drive", func(p *sim.Proc) {
		for _, f := range frames {
			nicSrc.Transmit(f)
			p.Sleep(4 * time.Millisecond)
		}
	})
	s.Run(0)

	out := equivOutcome{}
	s.Spawn(recv, "drain", func(p *sim.Proc) {
		for _, port := range ports {
			po := portOutcome{}
			for {
				pkts, err := port.ReadBatch(p)
				if err != nil {
					break
				}
				for _, pkt := range pkts {
					po.frames = append(po.frames, pkt.Data)
				}
			}
			st := port.Stats()
			po.id, po.matched, po.instrs, po.dropped = st.ID, st.Matched, st.FilterInstrs, st.Dropped
			out.ports = append(out.ports, po)
		}
	})
	s.Run(0)

	out.kernelDrops = dev.KernelDrops
	out.created = sp.Created
	out.delivered = sp.DeliveredUser
	out.drops = sp.Drops
	return out
}

// runLive pushes the identical frames through the live device.
func runLive(t *testing.T, mode pfdev.EvalMode, monitor bool,
	link ethersim.LinkType, sockets []uint32, frames [][]byte) equivOutcome {
	t.Helper()
	tr := trace.New()
	sp := tr.EnableSpans(trace.SpanConfig{Ring: 1 << 13})
	dev := NewDevice(Options{Link: link, Mode: mode, Reorder: true, Tracer: tr})

	var ports []*Port
	for i, sock := range sockets {
		port := dev.Open()
		limit := len(frames) + 1
		if i == 0 {
			limit = equivSmallQueue
		}
		port.SetQueueLimit(limit)
		if err := port.SetFilter(pup.SocketFilter(link, 10, sock)); err != nil {
			t.Fatalf("live setfilter %d: %v", i, err)
		}
		ports = append(ports, port)
	}
	if monitor {
		mon := dev.Open()
		mon.SetQueueLimit(len(frames) + 1)
		mon.SetCopyAll(true)
		if err := mon.SetFilter(filter.Filter{Priority: 200}); err != nil {
			t.Fatalf("live monitor filter: %v", err)
		}
		ports = append(ports, mon)
	}

	for _, f := range frames {
		dev.Input(f)
	}

	out := equivOutcome{}
	for _, port := range ports {
		po := portOutcome{}
		for {
			pkts, err := port.ReadBatch(0, -1)
			if err != nil {
				break
			}
			for _, pkt := range pkts {
				po.frames = append(po.frames, pkt.Data)
			}
		}
		st := port.Stats()
		po.id, po.matched, po.instrs, po.dropped = st.ID, st.Matched, st.FilterInstrs, st.Dropped
		out.ports = append(out.ports, po)
	}

	out.kernelDrops = dev.KernelDrops()
	out.created = sp.Created
	out.delivered = sp.DeliveredUser
	out.drops = sp.Drops
	return out
}

func TestModeEquivalence(t *testing.T) {
	link := ethersim.Ether10Mb
	sockets := make([]uint32, equivPorts)
	for i := range sockets {
		sockets[i] = uint32(0x100 + i)
	}
	for _, mode := range []pfdev.EvalMode{pfdev.EvalChecked, pfdev.EvalFast, pfdev.EvalCompiled, pfdev.EvalTable} {
		for _, monitor := range []bool{false, true} {
			name := fmt.Sprintf("mode=%d/monitor=%v", mode, monitor)
			t.Run(name, func(t *testing.T) {
				frames := equivFrames(99, link, sockets)
				v := runVirtual(t, mode, monitor, link, sockets, frames)
				l := runLive(t, mode, monitor, link, sockets, frames)

				if v.kernelDrops != l.kernelDrops {
					t.Errorf("kernel drops: virtual %d, live %d", v.kernelDrops, l.kernelDrops)
				}
				if v.created != l.created {
					t.Errorf("spans created: virtual %d, live %d", v.created, l.created)
				}
				if v.delivered != l.delivered {
					t.Errorf("spans delivered: virtual %d, live %d", v.delivered, l.delivered)
				}
				for r := range v.drops {
					if v.drops[r] != l.drops[r] {
						t.Errorf("drop %s: virtual %d, live %d",
							trace.DropReason(r), v.drops[r], l.drops[r])
					}
				}
				if len(v.ports) != len(l.ports) {
					t.Fatalf("port count: virtual %d, live %d", len(v.ports), len(l.ports))
				}
				for i := range v.ports {
					vp, lp := v.ports[i], l.ports[i]
					if vp.id != lp.id || vp.matched != lp.matched ||
						vp.instrs != lp.instrs || vp.dropped != lp.dropped {
						t.Errorf("port %d: virtual {matched %d instrs %d dropped %d}, live {matched %d instrs %d dropped %d}",
							vp.id, vp.matched, vp.instrs, vp.dropped,
							lp.matched, lp.instrs, lp.dropped)
					}
					if len(vp.frames) != len(lp.frames) {
						t.Errorf("port %d delivered %d frames virtual, %d live",
							vp.id, len(vp.frames), len(lp.frames))
						continue
					}
					for k := range vp.frames {
						if !bytes.Equal(vp.frames[k], lp.frames[k]) {
							t.Errorf("port %d frame %d differs between modes", vp.id, k)
							break
						}
					}
				}
			})
		}
	}
}
