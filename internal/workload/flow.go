package workload

// Heavy-tailed flow structure.  The paper's §6.1 mix describes the
// *composition* of a timesharing trace; real traffic additionally
// arrives as flows — bursts of packets between one endpoint pair —
// whose sizes are famously heavy-tailed: most flows are a few packets,
// while a small number of elephants carry most of the bytes.  FlowGen
// layers that structure over the Pup traffic class: it draws flow
// sizes from a bounded Pareto distribution and emits each flow's
// packets back to back to a single destination socket, so a receiving
// port population sees realistic hot-spot skew (a stress profile for
// busy-first reordering and the resource governor, and pfserve's
// heavytail self-test profile).

import (
	"math"
	"math/rand"

	"repro/internal/ethersim"
	"repro/internal/pup"
)

// FlowGen emits deterministic Pup traffic organized into heavy-tailed
// flows.
type FlowGen struct {
	rng  *rand.Rand
	link ethersim.LinkType

	// Sockets is the destination-socket population; each flow picks
	// one uniformly and sticks to it.
	Sockets []uint32

	// Alpha is the Pareto tail index.  1 < Alpha < 2 gives the
	// classic infinite-variance regime; default 1.2.
	Alpha float64
	// MinFlow and MaxFlow bound the packets per flow (defaults 1 and
	// 4096).  The upper bound keeps a single elephant from consuming
	// an entire test run.
	MinFlow, MaxFlow int

	// Flow state: remaining packets and destination of the current
	// flow.
	remaining int
	socket    uint32

	// Flows counts flows started; SentPF counts packets emitted;
	// LastFlowSize is the size drawn for the current flow.
	Flows        int
	SentPF       int
	LastFlowSize int

	// scratch is where a frame's Pup is marshalled; Encode copies it
	// into the frame it returns, so that frame is the only allocation.
	scratch []byte
}

// NewFlowGen creates a deterministic heavy-tailed flow generator.
func NewFlowGen(seed int64, link ethersim.LinkType, sockets []uint32) *FlowGen {
	return &FlowGen{
		rng:     rand.New(rand.NewSource(seed)),
		link:    link,
		Sockets: sockets,
		Alpha:   1.2,
		MinFlow: 1,
		MaxFlow: 4096,
		scratch: make([]byte, link.MaxFrame()),
	}
}

// flowSize draws one flow size from the bounded Pareto via inverse
// CDF: x = L / (1 - U*(1 - (L/H)^a))^(1/a), truncated to [L, H].
func (fg *FlowGen) flowSize() int {
	l, h := float64(fg.MinFlow), float64(fg.MaxFlow)
	a := fg.Alpha
	u := fg.rng.Float64()
	x := l / math.Pow(1-u*(1-math.Pow(l/h, a)), 1/a)
	n := int(x)
	if n < fg.MinFlow {
		n = fg.MinFlow
	}
	if n > fg.MaxFlow {
		n = fg.MaxFlow
	}
	return n
}

// nextFlow starts a new flow: a freshly drawn size and destination.
func (fg *FlowGen) nextFlow() {
	fg.remaining = fg.flowSize()
	fg.LastFlowSize = fg.remaining
	if len(fg.Sockets) > 0 {
		fg.socket = fg.Sockets[fg.rng.Intn(len(fg.Sockets))]
	} else {
		fg.socket = 0x100
	}
	fg.Flows++
}

// Frame produces the next frame: the current flow's next packet, or
// the first packet of a new flow once the current one is exhausted.
func (fg *FlowGen) Frame(dst, src ethersim.Addr) []byte {
	if fg.remaining == 0 {
		fg.nextFlow()
	}
	fg.remaining--
	fg.SentPF++
	pkt := pup.Packet{
		Type: uint8(1 + fg.rng.Intn(60)),
		ID:   fg.rng.Uint32(),
		Dst:  pup.PortAddr{Net: 1, Host: uint8(dst), Socket: fg.socket},
		Src:  pup.PortAddr{Net: 1, Host: uint8(src), Socket: 0x9000},
		Data: pupData[:16+fg.rng.Intn(100)],
	}
	payload, _ := pkt.AppendBinary(fg.scratch[:0]) // generated data never exceeds MaxData
	etherType := ethersim.EtherTypePup3Mb
	if fg.link == ethersim.Ether10Mb {
		etherType = ethersim.EtherTypePup
	}
	return fg.link.Encode(dst, src, etherType, payload)
}
