package workload

// Adversarial workloads: the attacker's half of the resource-governance
// story.  The paper's only structural defense against a hostile user is
// the program-length cap, so the worst legal filter still charges the
// kernel MaxProgramLen instruction units for every frame on the wire —
// these helpers construct that filter (and the traffic patterns that
// weaponize it) so the storm experiments and the governor's tests can
// prove graceful degradation instead of assuming it.

import (
	"math/rand"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pup"
	"repro/internal/sim"
)

// BurnProgram is the canonical hostile filter: filter.MaxInstrsProgram
// with an always-false tail, so every one of its MaxProgramLen
// instruction words executes on every packet and the packet still
// falls through to the next filter.  A port binding it taxes the whole
// interface's scan without ever consuming a frame — the worst case for
// everyone else, which is exactly what an adversary wants.
func BurnProgram() filter.Program {
	p := filter.MaxInstrsProgram()
	// Replace the final OR with AND-with-zero: the OR-chain's value is
	// discarded and the program always rejects.  Constant propagation
	// cannot cap it (one operand stays packet-dependent), so its
	// WorstInstrs equals its full length.
	p[len(p)-1] = filter.MkInstr(filter.PUSHZERO, filter.AND)
	return p
}

// SearchAdversarial hill-climbs over random mutations for the valid
// program executing the most instruction words against the sample
// packets, starting from a modest random program.  It returns the best
// program found and its total executed count.  The search is seeded
// and deterministic; with enough rounds it converges on full-length
// straight-line programs — empirical evidence that BurnProgram (which
// it can never beat, only meet) really is the worst case the language
// admits.
func SearchAdversarial(seed int64, rounds int, pkts [][]byte) (filter.Program, int) {
	rng := rand.New(rand.NewSource(seed))
	score := func(p filter.Program) int {
		if _, err := filter.Validate(p, filter.ValidateOptions{}); err != nil {
			return -1
		}
		total := 0
		for _, pkt := range pkts {
			total += filter.Run(p, pkt).Instrs
		}
		return total
	}
	best := filter.Program{filter.MkInstr(filter.PUSHONE, filter.NOP)}
	bestScore := score(best)
	for i := 0; i < rounds; i++ {
		cand := best.Clone()
		switch rng.Intn(3) {
		case 0: // grow: splice a push-and-combine pair somewhere
			if len(cand) < filter.MaxProgramLen {
				at := rng.Intn(len(cand) + 1)
				w := filter.MkInstr(filter.PushWord(rng.Intn(8)), filter.Op(rng.Intn(16)))
				cand = append(cand[:at], append(filter.Program{w}, cand[at:]...)...)
			}
		case 1: // mutate one word wholesale
			cand[rng.Intn(len(cand))] = filter.Word(rng.Uint32())
		default: // mutate just the operator nibble
			at := rng.Intn(len(cand))
			cand[at] = filter.MkInstr(cand[at].Action(), filter.Op(rng.Intn(16)))
		}
		if s := score(cand); s > bestScore {
			best, bestScore = cand, s
		}
	}
	return best, bestScore
}

// BroadcastStorm floods n broadcast Pup frames from nic, one every
// interval — every host on the wire demultiplexes every frame, so a
// single sender applies the whole segment's filter load.  Frames cycle
// destination sockets from the generator's population, making them
// near-misses for every bound filter (maximum scan work, no
// deliveries) unless a port really does own the socket.
func (g *Generator) BroadcastStorm(p *sim.Proc, nic *ethersim.NIC, n int, interval time.Duration) {
	tr := p.Sim().Tracer()
	bcast := g.link.BroadcastAddr()
	for i := 0; i < n; i++ {
		nic.Transmit(g.pupFrame(bcast, nic.Addr()))
		tr.SpanClass(tr.LastSpan(), "storm")
		p.Sleep(interval)
	}
}

// PortChurnFlood sends n Pup frames whose destination socket walks a
// churn window far outside the generator's socket population: every
// frame misses every bound filter after a full-length scan, and the
// constantly shifting socket defeats both the §3.2 busy-first
// reordering and any caching keyed on recent match outcomes.  It is
// the pattern that keeps a governor honest about charging the scan,
// not the match.
func (g *Generator) PortChurnFlood(p *sim.Proc, nic *ethersim.NIC, dst ethersim.Addr, n int, interval time.Duration) {
	tr := p.Sim().Tracer()
	for i := 0; i < n; i++ {
		pkt := pup.Packet{
			Type: 1,
			ID:   g.rng.Uint32(),
			Dst:  pup.PortAddr{Net: 1, Host: uint8(dst), Socket: 0x4_0000 + uint32(i%4096)},
			Src:  pup.PortAddr{Net: 1, Host: uint8(nic.Addr()), Socket: 0x9000},
			Data: pupData[:16],
		}
		nic.Transmit(g.pupEncode(dst, nic.Addr(), &pkt))
		tr.SpanClass(tr.LastSpan(), "churn")
		p.Sleep(interval)
	}
}
