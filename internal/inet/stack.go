package inet

import (
	"encoding/binary"
	"time"

	"repro/internal/ethersim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stack is one host's kernel-resident protocol stack.  It satisfies
// pfdev.KernelProtocol so the packet filter device can hand it frames
// first.
type Stack struct {
	host *sim.Host
	nic  *ethersim.NIC
	addr Addr

	arp     map[Addr]ethersim.Addr
	arpWait map[Addr][][]byte // packets queued awaiting resolution

	udp map[uint16]*UDPSocket
	tcp map[tcpKey]*TCPConn
	lst map[uint16]*TCPListener

	pings   map[pingKey]*pingWait
	pingID  uint16
	pingSeq uint16

	// Counters of kernel protocol activity.
	IPIn, IPOut, ARPIn uint64
}

// NewStack creates a stack on nic with the given IP address.  It does
// not take over the NIC handler: attach a pfdev.Device with this stack
// as its KernelProtocol (figure 3-3), or call Claim directly from a
// custom handler.
func NewStack(nic *ethersim.NIC, addr Addr) *Stack {
	return &Stack{
		host: nic.Host(), nic: nic, addr: addr,
		pingID:  uint16(addr), // distinct per host; good enough for a sim
		arp:     make(map[Addr]ethersim.Addr),
		arpWait: make(map[Addr][][]byte),
		udp:     make(map[uint16]*UDPSocket),
		tcp:     make(map[tcpKey]*TCPConn),
		lst:     make(map[uint16]*TCPListener),
	}
}

// StandaloneHandler installs the stack directly as the NIC handler for
// hosts with no packet filter (the "vanilla 4.3BSD" of figure 3-2).
func (st *Stack) StandaloneHandler() {
	st.nic.Handler = func(frames [][]byte, _ []uint64, _ int) {
		for _, f := range frames {
			st.Claim(f)
		}
	}
}

// Addr returns the stack's IP address.
func (st *Stack) Addr() Addr { return st.addr }

// Host returns the host the stack runs on.
func (st *Stack) Host() *sim.Host { return st.host }

// AddARP seeds the ARP cache (benchmarks pre-seed it to avoid
// resolution noise).
func (st *Stack) AddARP(ip Addr, hw ethersim.Addr) { st.arp[ip] = hw }

// Claim implements pfdev.KernelProtocol: IP and ARP frames are
// consumed by the kernel stack, everything else is left to the packet
// filter.
func (st *Stack) Claim(frame []byte) bool {
	link := st.nic.Network().Link()
	_, _, etherType, payload, err := link.Decode(frame)
	if err != nil {
		return false
	}
	switch etherType {
	case ethersim.EtherTypeIP:
		st.inputIP(payload, st.host.Sim().Tracer().SpanClaimTake())
		return true
	case ethersim.EtherTypeARP:
		st.inputARP(payload, st.host.Sim().Tracer().SpanClaimTake())
		return true
	}
	return false
}

// inputIP processes a received IP packet in kernel context.  The span
// (if any) terminates here: either as a typed drop or as a kernel
// delivery — protocol handlers above never re-terminate it.
func (st *Stack) inputIP(payload []byte, span uint64) {
	costs := st.host.Costs()
	tr := st.host.Sim().Tracer()
	now := st.host.Clock().Now()
	h, seg, err := UnmarshalIP(payload)
	if err != nil || h.Dst != st.addr {
		tr.SpanDrop(span, now, st.host.Name(), trace.DropInet)
		st.host.RunKernel("ip", costs.IPInput, nil)
		return
	}
	if h.TTL == 0 {
		tr.SpanDrop(span, now, st.host.Name(), trace.DropTTL)
		st.host.RunKernel("ip", costs.IPInput, nil)
		return
	}
	tr.SpanKernelDelivered(span, now, st.host.Name(), "ip")
	st.IPIn++
	if tr != nil {
		tr.Proto(now, st.host.Name(), "ip_in")
	}
	switch h.Proto {
	case ProtoUDP:
		st.host.RunKernel("ip", costs.IPInput, func() {
			st.inputUDP(h, seg)
		})
	case ProtoTCP:
		st.host.RunKernel("ip", costs.IPInput, func() {
			st.inputTCP(h, seg)
		})
	case ProtoICMP:
		st.host.RunKernel("ip", costs.IPInput, func() {
			st.inputICMP(h, seg)
		})
	default:
		st.host.RunKernel("ip", costs.IPInput, nil)
	}
}

// sendIP charges kernel output costs and transmits an IP packet,
// resolving the next hop with ARP if needed.
func (st *Stack) sendIP(h IPHdr, seg []byte, checksumBytes int) {
	costs := st.host.Costs()
	h.Src = st.addr
	if h.TTL == 0 {
		h.TTL = 30
	}
	pkt := MarshalIP(h, seg)
	cost := costs.IPOutput + costs.DriverSend + costs.Checksum(checksumBytes)
	st.IPOut++
	if tr := st.host.Sim().Tracer(); tr != nil {
		tr.Proto(st.host.Clock().Now(), st.host.Name(), "ip_out")
	}
	st.host.RunKernel("ip", cost, func() {
		st.transmitResolved(h.Dst, pkt)
	})
}

func (st *Stack) transmitResolved(dst Addr, pkt []byte) {
	link := st.nic.Network().Link()
	if hw, ok := st.arp[dst]; ok {
		st.nic.Transmit(link.Encode(hw, st.nic.Addr(), ethersim.EtherTypeIP, pkt))
		return
	}
	// Queue behind an ARP request.
	st.arpWait[dst] = append(st.arpWait[dst], pkt)
	if len(st.arpWait[dst]) == 1 {
		st.sendARP(arpRequest, dst, 0)
	}
}

// --- ARP -------------------------------------------------------------------

// ARP opcodes (RFC 826; RARP reuses the format with opcodes 3/4, see
// package rarp).
const (
	arpRequest = 1
	arpReply   = 2
)

// arpPacket is the Ethernet/IPv4 ARP layout used by both this stack
// and package rarp.
func marshalARP(op uint16, senderHW ethersim.Addr, senderIP Addr, targetHW ethersim.Addr, targetIP Addr, link ethersim.LinkType) []byte {
	hlen := link.AddrLen()
	b := make([]byte, 8+2*hlen+8)
	binary.BigEndian.PutUint16(b[0:], 1) // hardware: Ethernet
	binary.BigEndian.PutUint16(b[2:], uint16(ethersim.EtherTypeIP))
	b[4] = byte(hlen)
	b[5] = 4
	binary.BigEndian.PutUint16(b[6:], op)
	off := 8
	putHW := func(a ethersim.Addr) {
		for i := hlen - 1; i >= 0; i-- {
			b[off+i] = byte(a)
			a >>= 8
		}
		off += hlen
	}
	putIP := func(a Addr) {
		binary.BigEndian.PutUint32(b[off:], uint32(a))
		off += 4
	}
	putHW(senderHW)
	putIP(senderIP)
	putHW(targetHW)
	putIP(targetIP)
	return b
}

func unmarshalARP(b []byte, link ethersim.LinkType) (op uint16, senderHW ethersim.Addr, senderIP Addr, targetHW ethersim.Addr, targetIP Addr, ok bool) {
	hlen := link.AddrLen()
	if len(b) < 8+2*hlen+8 || int(b[4]) != hlen || b[5] != 4 {
		return 0, 0, 0, 0, 0, false
	}
	op = binary.BigEndian.Uint16(b[6:])
	off := 8
	getHW := func() ethersim.Addr {
		var a ethersim.Addr
		for i := 0; i < hlen; i++ {
			a = a<<8 | ethersim.Addr(b[off+i])
		}
		off += hlen
		return a
	}
	getIP := func() Addr {
		a := Addr(binary.BigEndian.Uint32(b[off:]))
		off += 4
		return a
	}
	senderHW = getHW()
	senderIP = getIP()
	targetHW = getHW()
	targetIP = getIP()
	return op, senderHW, senderIP, targetHW, targetIP, true
}

func (st *Stack) sendARP(op uint16, target Addr, targetHW ethersim.Addr) {
	link := st.nic.Network().Link()
	pkt := marshalARP(op, st.nic.Addr(), st.addr, targetHW, target, link)
	dst := targetHW
	if op == arpRequest {
		dst = link.BroadcastAddr()
	}
	st.host.RunKernel("arp", 100*time.Microsecond, func() {
		st.nic.Transmit(link.Encode(dst, st.nic.Addr(), ethersim.EtherTypeARP, pkt))
	})
}

func (st *Stack) inputARP(payload []byte, span uint64) {
	st.ARPIn++
	tr := st.host.Sim().Tracer()
	if tr != nil {
		tr.Proto(st.host.Clock().Now(), st.host.Name(), "arp_in")
	}
	link := st.nic.Network().Link()
	costs := st.host.Costs()
	op, senderHW, senderIP, _, targetIP, ok := unmarshalARP(payload, link)
	if !ok {
		tr.SpanDrop(span, st.host.Clock().Now(), st.host.Name(), trace.DropInet)
		return
	}
	tr.SpanKernelDelivered(span, st.host.Clock().Now(), st.host.Name(), "arp")
	st.host.RunKernel("arp", costs.IPInput/3, func() {
		// Opportunistically learn the sender.
		st.arp[senderIP] = senderHW
		switch op {
		case arpRequest:
			if targetIP == st.addr {
				st.sendARP(arpReply, senderIP, senderHW)
			}
		case arpReply:
			// Flush packets that waited on this resolution.
			for _, pkt := range st.arpWait[senderIP] {
				st.transmitResolved(senderIP, pkt)
			}
			delete(st.arpWait, senderIP)
		}
	})
}
