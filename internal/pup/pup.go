// Package pup implements the Pup internetwork datagram protocol of
// Boggs, Shoch, Taft & Metcalfe ("Pup: An internetwork architecture",
// 1980) as a user-level protocol over the packet filter, the way the
// Stanford Unix implementation of §5.1 did: "almost all of the Pup
// protocols were implemented for Unix, based entirely on the packet
// filter."
//
// The packet format follows the paper's figure 3-7: a Pup carried on
// the 3 Mb Experimental Ethernet is the 4-byte data-link header
// followed by a 20-byte Pup header (length, hop count, type, a 32-bit
// identifier, destination and source ports), the data, and a software
// checksum word.  The byte-stream protocol (BSP) in bsp.go layers a
// sliding window over these datagrams.
package pup

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Header sizes and limits.  "Pup (hence BSP) allows a maximum packet
// size of 568 bytes" (§6.4): 20 bytes of header + 546 of data + the
// 2-byte checksum.
const (
	HeaderLen   = 20
	ChecksumLen = 2
	MaxData     = 546
	MaxPup      = HeaderLen + MaxData + ChecksumLen // 568
)

// NoChecksum in the checksum field means the checksum was not
// computed, which the paper's measured implementations exploit ("note
// that TCP checksums all data, whereas these implementations of VMTP
// do not").
const NoChecksum = 0xFFFF

// Pup types used in this repository.  EchoMe/ImAnEcho are the Pup echo
// protocol; the BSP types are private to bsp.go's stream protocol.
const (
	TypeEchoMe   uint8 = 1
	TypeImAnEcho uint8 = 2
	TypeBSPData  uint8 = 16
	TypeBSPAck   uint8 = 17
	TypeBSPEnd   uint8 = 18
	TypeBSPEndOK uint8 = 19
)

// PortAddr is a Pup port: network, host, and a 32-bit socket.
type PortAddr struct {
	Net    uint8
	Host   uint8
	Socket uint32
}

// String formats the address in Pup's conventional net#host#socket
// form.
func (a PortAddr) String() string {
	return fmt.Sprintf("%d#%d#%d", a.Net, a.Host, a.Socket)
}

// Packet is one Pup datagram.
type Packet struct {
	HopCount uint8
	Type     uint8
	ID       uint32
	Dst      PortAddr
	Src      PortAddr
	Data     []byte
	// Checksummed selects whether Marshal computes the trailing
	// software checksum or stores NoChecksum.
	Checksummed bool
}

// Errors returned by Unmarshal.
var (
	ErrTooShort    = errors.New("pup: packet shorter than header")
	ErrTooLong     = errors.New("pup: data exceeds MaxData")
	ErrBadLength   = errors.New("pup: length field inconsistent")
	ErrBadChecksum = errors.New("pup: checksum mismatch")
)

// Marshal encodes the Pup into wire format (header, data, checksum)
// in a buffer of its own, sized exactly.
func (p *Packet) Marshal() ([]byte, error) {
	return p.AppendBinary(make([]byte, 0, HeaderLen+len(p.Data)+ChecksumLen))
}

// AppendBinary appends the Pup's wire format (header, data, checksum)
// to b and returns the extended slice, growing b at most once; on
// error it returns b unchanged.  It is Marshal into a caller's buffer,
// in the manner of encoding.BinaryAppender.
func (p *Packet) AppendBinary(b []byte) ([]byte, error) {
	if len(p.Data) > MaxData {
		return b, ErrTooLong
	}
	total := HeaderLen + len(p.Data) + ChecksumLen
	start := len(b)
	b = binary.BigEndian.AppendUint16(slices.Grow(b, total), uint16(total))
	b = append(b, p.HopCount, p.Type)
	b = binary.BigEndian.AppendUint32(b, p.ID)
	b = append(b, p.Dst.Net, p.Dst.Host)
	b = binary.BigEndian.AppendUint32(b, p.Dst.Socket)
	b = append(b, p.Src.Net, p.Src.Host)
	b = binary.BigEndian.AppendUint32(b, p.Src.Socket)
	b = append(b, p.Data...)
	sum := uint16(NoChecksum)
	if p.Checksummed {
		sum = Checksum(b[start:])
	}
	return binary.BigEndian.AppendUint16(b, sum), nil
}

// Unmarshal decodes a Pup from wire format, verifying the length field
// and, when present, the checksum.
func Unmarshal(b []byte) (*Packet, error) {
	if len(b) < HeaderLen+ChecksumLen {
		return nil, ErrTooShort
	}
	total := int(binary.BigEndian.Uint16(b[0:]))
	if total < HeaderLen+ChecksumLen || total > len(b) || total > MaxPup {
		return nil, ErrBadLength
	}
	p := &Packet{
		HopCount: b[2],
		Type:     b[3],
		ID:       binary.BigEndian.Uint32(b[4:]),
		Dst: PortAddr{
			Net: b[8], Host: b[9],
			Socket: binary.BigEndian.Uint32(b[10:]),
		},
		Src: PortAddr{
			Net: b[14], Host: b[15],
			Socket: binary.BigEndian.Uint32(b[16:]),
		},
		Data: append([]byte(nil), b[HeaderLen:total-ChecksumLen]...),
	}
	sum := binary.BigEndian.Uint16(b[total-ChecksumLen:])
	if sum != NoChecksum {
		p.Checksummed = true
		if sum != Checksum(b[:total-ChecksumLen]) {
			return nil, ErrBadChecksum
		}
	}
	return p, nil
}

// Checksum is the Pup software checksum: ones-complement addition of
// 16-bit words with a left rotate after each add.  Odd trailing bytes
// are zero-padded.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i < len(b); i += 2 {
		var w uint32
		if i+1 < len(b) {
			w = uint32(binary.BigEndian.Uint16(b[i:]))
		} else {
			w = uint32(b[i]) << 8
		}
		sum += w
		if sum > 0xFFFF {
			sum = (sum & 0xFFFF) + 1 // end-around carry
		}
		// Rotate left by one within 16 bits.
		sum = ((sum << 1) & 0xFFFF) | (sum >> 15)
	}
	if sum == NoChecksum {
		sum = 0
	}
	return uint16(sum)
}
