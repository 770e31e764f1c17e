package bench

import (
	"fmt"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AblationEvalModes compares the four evaluation modes of §4/§7 on the
// same 20-filter receive workload: checked interpretation
// (production), ahead-of-time validation, compilation, and the merged
// decision table.  The two middle modes run the same flat register
// code and differ only in the price the device charges per evaluation;
// bench_test.go measures the real nanosecond ratios.
func AblationEvalModes() Table {
	t := Table{
		ID:      "abl-eval",
		Title:   "Ablation: filter evaluation strategies (20 active filters, traffic to the last)",
		Columns: []string{"Strategy", "elapsed per packet"},
		Notes: []string{
			"§7: prevalidation removes per-instruction checks; compilation removes decode; the decision table makes cost independent of the filter population",
		},
	}
	for _, m := range []struct {
		mode pfdev.EvalMode
		name string
	}{
		{pfdev.EvalChecked, "checked interpreter (§4)"},
		{pfdev.EvalFast, "prevalidated interpreter (§7)"},
		{pfdev.EvalCompiled, "compiled to closures (§7)"},
		{pfdev.EvalTable, "merged decision table (§7)"},
	} {
		per := measureEvalMode(m.mode, 20)
		t.Rows = append(t.Rows, []string{m.name, ms(per)})
	}
	return t
}

// measureEvalMode: 20 socket filters bound, traffic to the last-bound
// socket, measuring per-packet receive cost.
func measureEvalMode(mode pfdev.EvalMode, nPorts int) time.Duration {
	r := newRig(rigOptions{link: ethersim.Ether3Mb, pf: pfdev.Options{Mode: mode}})
	const count = 40
	received := 0
	var t0, t1 time.Duration

	r.s.Spawn(r.hB, "dest", func(p *sim.Proc) {
		var last *pfdev.Port
		for i := 0; i < nPorts; i++ {
			port := r.devB.Open(p)
			port.SetFilter(p, pup.SocketFilter(ethersim.Ether3Mb, 10, uint32(0x100+i)))
			port.SetQueueLimit(p, 4*count)
			last = port
		}
		last.SetTimeout(p, 300*time.Millisecond)
		for received < count {
			batch, err := last.ReadBatch(p)
			if err != nil {
				return
			}
			received += len(batch)
			t1 = p.Now()
		}
	})
	r.s.Spawn(r.hA, "src", func(p *sim.Proc) {
		p.Sleep(time.Duration(20+3*nPorts) * time.Millisecond)
		t0 = p.Now()
		pkt := pup.Packet{Type: 1,
			Dst: pup.PortAddr{Net: 1, Host: 2, Socket: uint32(0x100 + nPorts - 1)}}
		payload, _ := pkt.Marshal()
		frame := ethersim.Ether3Mb.Encode(2, 1, ethersim.EtherTypePup3Mb, payload)
		for i := 0; i < count; i++ {
			r.nicA.Transmit(frame)
			p.Sleep(700 * time.Microsecond)
		}
	})
	r.s.Run(5 * time.Second)
	if received == 0 {
		return 0
	}
	return (t1 - t0) / time.Duration(received)
}

// AblationShortCircuit compares figure 3-8's plain filter style with
// figure 3-9's short-circuit style on non-matching traffic — the case
// the operators were added for ("they would reduce the cost of
// interpreting filter predicates", §3.1).
func AblationShortCircuit() Table {
	t := Table{
		ID:      "abl-sc",
		Title:   "Ablation: short-circuit operators (instructions executed on a non-matching packet)",
		Columns: []string{"Filter style", "instrs on miss", "instrs on match"},
		Notes: []string{
			"fig 3-9 tests the most selective field first, so a miss costs 2 instructions instead of the full program",
		},
	}
	// Non-matching and matching Pup packets for both programs.
	miss := pupFrame(50, 36)
	match := pupFrame(50, 35)

	plain := filter.NewBuilder(). // fig 3-9's predicate without short-circuits
					WordEQ(8, 35).
					WordEQ(7, 0).And().
					WordEQ(1, 2).And().
					MustProgram()
	sc := filter.Fig39PupSocket().Program

	for _, f := range []struct {
		name string
		prog filter.Program
	}{{"plain (fig 3-8 style)", plain}, {"short-circuit (fig 3-9)", sc}} {
		rm := filter.Run(f.prog, miss)
		rh := filter.Run(f.prog, match)
		t.Rows = append(t.Rows, []string{f.name,
			fmt.Sprintf("%d", rm.Instrs), fmt.Sprintf("%d", rh.Instrs)})
	}
	// §7's other field-size conjecture: the 32-bit wide machine does
	// the socket in one comparison.
	wide := filter.WideSocketFilter(35)
	wm := filter.RunWide(wide, miss)
	wh := filter.RunWide(wide, match)
	t.Rows = append(t.Rows, []string{"32-bit wide machine (§7)",
		fmt.Sprintf("%d", wm.Instrs), fmt.Sprintf("%d", wh.Instrs)})
	return t
}

func pupFrame(pupType uint8, socket uint32) []byte {
	pkt := pup.Packet{Type: pupType,
		Dst: pup.PortAddr{Net: 1, Host: 2, Socket: socket}}
	payload, _ := pkt.Marshal()
	return ethersim.Ether3Mb.Encode(2, 1, ethersim.EtherTypePup3Mb, payload)
}

// AblationPriorityOrder measures §3.2's priority/busyness effect: with
// traffic concentrated on one port, placing its filter early (by
// priority or by automatic reordering) cuts the filters applied per
// packet.
func AblationPriorityOrder() Table {
	t := Table{
		ID:      "abl-prio",
		Title:   "Ablation: filter ordering (16 ports, 70% of traffic to one socket)",
		Columns: []string{"Ordering", "filters applied per packet", "filter instrs per packet"},
		Notes: []string{
			"§3.2: \"if priorities are assigned proportional to the likelihood that a filter will accept a packet, then the 'average' packet will match one of the first few filters\"",
		},
	}
	for _, cfg := range []struct {
		name    string
		reorder bool
		bias    bool // give the busy socket the highest priority
	}{
		{"uniform priorities, busy port last", false, false},
		{"busy port given highest priority", false, true},
		{"automatic busy-first reordering (§3.2)", true, false},
	} {
		applied, instrs := measureOrdering(cfg.reorder, cfg.bias)
		t.Rows = append(t.Rows, []string{cfg.name,
			fmt.Sprintf("%.1f", applied), fmt.Sprintf("%.1f", instrs)})
	}
	return t
}

func measureOrdering(reorder, bias bool) (appliedPerPkt, instrsPerPkt float64) {
	r := newRig(rigOptions{link: ethersim.Ether10Mb,
		pf: pfdev.Options{Reorder: reorder, ReorderEvery: 32}})
	const nPorts = 16
	const packets = 300

	sockets := make([]uint32, nPorts)
	for i := range sockets {
		sockets[i] = uint32(0x100 + i)
	}
	busy := sockets[nPorts-1] // bound last → tested last without help

	r.s.Spawn(r.hB, "ports", func(p *sim.Proc) {
		for i, sock := range sockets {
			prio := uint8(10)
			if bias && sock == busy {
				prio = 200
			}
			port := r.devB.Open(p)
			port.SetFilter(p, pup.SocketFilter(ethersim.Ether10Mb, prio, sock))
			port.SetQueueLimit(p, 2*packets)
			_ = i
		}
	})
	gen := workload.NewGenerator(7, ethersim.Ether10Mb, workload.Mix{PctPF: 100}, sockets)
	r.s.Spawn(r.hA, "traffic", func(p *sim.Proc) {
		p.Sleep(time.Duration(20+3*nPorts) * time.Millisecond)
		r.hB.ResetAccounting()
		for i := 0; i < packets; i++ {
			sock := busy
			if gen.SentPF%10 >= 7 { // 30% background spread
				sock = sockets[i%nPorts]
			}
			pkt := pup.Packet{Type: 1, Dst: pup.PortAddr{Net: 1, Host: 2, Socket: sock}}
			payload, _ := pkt.Marshal()
			r.nicA.Transmit(ethersim.Ether10Mb.Encode(2, 1, ethersim.EtherTypePup, payload))
			gen.SentPF++
			p.Sleep(4 * time.Millisecond)
		}
	})
	r.s.Run(5 * time.Minute)
	c := r.hB.Counters
	seen := c.PacketsMatched + r.devB.KernelDrops
	if seen == 0 {
		return 0, 0
	}
	return float64(c.FilterApplied) / float64(seen),
		float64(c.FilterInstrs) / float64(seen)
}
