// Package workload synthesizes the traffic the paper's §6.1 profiling
// ran under: a 28-hour timesharing trace in which "21% of these
// packets were processed by the packet filter; of the remainder, 69%
// were IP packets and 10% were ARP packets", with the packet-filter
// share spread over a population of active ports so that "the average
// packet is tested against 6.3 predicates".
//
// Generators are deterministic (seeded math/rand) so every benchmark
// run reproduces the same packet sequence.
package workload

import (
	"encoding/binary"
	"math/rand"
	"time"

	"repro/internal/ethersim"
	"repro/internal/pup"
	"repro/internal/sim"
)

// Mix is a traffic composition in percent; the remainder after PF+IP+ARP
// is emitted as unclassifiable frames (dropped by everyone).
type Mix struct {
	PctPF  int // Pup packets destined for packet-filter ports
	PctIP  int // UDP-over-IP packets for the kernel stack
	PctARP int // ARP requests
}

// PaperMix is §6.1's published composition.
func PaperMix() Mix { return Mix{PctPF: 21, PctIP: 69, PctARP: 10} }

// Generator emits a deterministic packet mix onto a network.
type Generator struct {
	rng  *rand.Rand
	mix  Mix
	link ethersim.LinkType

	// Sockets is the population of Pup destination sockets that
	// packet-filter traffic is spread over; the §6.1 experiment
	// binds one port per socket.
	Sockets []uint32
	// SocketBias skews traffic toward the first sockets when > 0,
	// giving the priority/reordering machinery something to
	// exploit (§3.2: priorities "proportional to the likelihood
	// that a filter will accept a packet").
	SocketBias float64

	// Sent counts per class.
	SentPF, SentIP, SentARP, SentOther int

	// LastClass names the class of the most recent Frame ("pup",
	// "ip", "arp", "other") — Drive tags each transmitted frame's
	// provenance span with it.
	LastClass string

	// scratch is where a frame's payload is assembled (no payload
	// outgrows the link's largest frame); Encode copies it into the
	// frame it returns, so that frame is the only allocation and no
	// caller ever holds scratch bytes.
	scratch []byte
}

// NewGenerator creates a deterministic generator.
func NewGenerator(seed int64, link ethersim.LinkType, mix Mix, sockets []uint32) *Generator {
	return &Generator{
		rng: rand.New(rand.NewSource(seed)), mix: mix, link: link,
		Sockets: sockets,
		scratch: make([]byte, link.MaxFrame()),
	}
}

// zeroed returns n zero bytes of scratch, valid until the next call.
func (g *Generator) zeroed(n int) []byte {
	b := g.scratch[:n]
	clear(b)
	return b
}

// Frame produces the next frame addressed to dst (src is the sender's
// link address).
func (g *Generator) Frame(dst, src ethersim.Addr) []byte {
	roll := g.rng.Intn(100)
	switch {
	case roll < g.mix.PctPF:
		g.SentPF++
		g.LastClass = "pup"
		return g.pupFrame(dst, src)
	case roll < g.mix.PctPF+g.mix.PctIP:
		g.SentIP++
		g.LastClass = "ip"
		return g.ipFrame(dst, src)
	case roll < g.mix.PctPF+g.mix.PctIP+g.mix.PctARP:
		g.SentARP++
		g.LastClass = "arp"
		return g.arpFrame(src)
	default:
		g.SentOther++
		g.LastClass = "other"
		return g.link.Encode(dst, src, 0x9999, g.zeroed(46))
	}
}

// pickSocket selects a destination socket, optionally biased toward
// the front of the population.
func (g *Generator) pickSocket() uint32 {
	if len(g.Sockets) == 0 {
		return 0x100
	}
	if g.SocketBias <= 0 {
		return g.Sockets[g.rng.Intn(len(g.Sockets))]
	}
	// Geometric-ish bias: repeatedly prefer the earlier half.
	i := g.rng.Intn(len(g.Sockets))
	for i > 0 && g.rng.Float64() < g.SocketBias {
		i /= 2
	}
	return g.Sockets[i]
}

func (g *Generator) pupFrame(dst, src ethersim.Addr) []byte {
	pkt := pup.Packet{
		Type: uint8(1 + g.rng.Intn(60)),
		ID:   g.rng.Uint32(),
		Dst:  pup.PortAddr{Net: 1, Host: uint8(dst), Socket: g.pickSocket()},
		Src:  pup.PortAddr{Net: 1, Host: uint8(src), Socket: 0x9000},
		Data: pupData[:16+g.rng.Intn(100)],
	}
	return g.pupEncode(dst, src, &pkt)
}

// pupData is the all-zero data of every generated Pup.  AppendBinary
// only reads it, so it can live outside scratch, which the Pup is
// marshalled into.
var pupData [pup.MaxData]byte

// pupEncode marshals pkt into scratch and frames it, so the frame
// Encode returns is the only allocation.
func (g *Generator) pupEncode(dst, src ethersim.Addr, pkt *pup.Packet) []byte {
	payload, _ := pkt.AppendBinary(g.scratch[:0]) // generated data never exceeds MaxData
	etherType := ethersim.EtherTypePup3Mb
	if g.link == ethersim.Ether10Mb {
		etherType = ethersim.EtherTypePup
	}
	return g.link.Encode(dst, src, etherType, payload)
}

func (g *Generator) ipFrame(dst, src ethersim.Addr) []byte {
	// A hand-rolled IP/UDP datagram (the generator plays "the rest
	// of the campus", not our own stack): 20 bytes of IP header, 8 of
	// UDP header, then all-zero data.
	ip := g.zeroed(20 + 8 + 32 + g.rng.Intn(200))
	seg := ip[20:]
	binary.BigEndian.PutUint16(seg[0:], uint16(1024+g.rng.Intn(64)))
	binary.BigEndian.PutUint16(seg[2:], 1) // the well-known sink port
	binary.BigEndian.PutUint16(seg[4:], uint16(len(seg)))
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(len(ip)))
	ip[8] = 30
	ip[9] = 17
	binary.BigEndian.PutUint32(ip[12:], 0x0A000000|uint32(src))
	binary.BigEndian.PutUint32(ip[16:], 0x0A000000|uint32(dst))
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i:]))
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	binary.BigEndian.PutUint16(ip[10:], ^uint16(sum))
	return g.link.Encode(dst, src, ethersim.EtherTypeIP, ip)
}

func (g *Generator) arpFrame(src ethersim.Addr) []byte {
	hlen := g.link.AddrLen()
	b := g.zeroed(8 + 2*hlen + 8)
	binary.BigEndian.PutUint16(b[0:], 1)
	binary.BigEndian.PutUint16(b[2:], uint16(ethersim.EtherTypeIP))
	b[4] = byte(hlen)
	b[5] = 4
	binary.BigEndian.PutUint16(b[6:], 1) // request
	// Sender hardware address.
	a := src
	for i := hlen - 1; i >= 0; i-- {
		b[8+i] = byte(a)
		a >>= 8
	}
	binary.BigEndian.PutUint32(b[8+hlen:], 0x0A000000|uint32(src))
	binary.BigEndian.PutUint32(b[8+2*hlen+4:], 0x0A000000|uint32(g.rng.Intn(250)))
	return g.link.Encode(g.link.BroadcastAddr(), src, ethersim.EtherTypeARP, b)
}

// Drive transmits n frames from nic to dst, one every interval,
// blocking in the calling process.
func (g *Generator) Drive(p *sim.Proc, nic *ethersim.NIC, dst ethersim.Addr, n int, interval time.Duration) {
	tr := p.Sim().Tracer()
	for i := 0; i < n; i++ {
		nic.Transmit(g.Frame(dst, nic.Addr()))
		tr.SpanClass(tr.LastSpan(), g.LastClass)
		p.Sleep(interval)
	}
}
