package ethersim

import (
	"bytes"
	"testing"
	"time"
)

// ownershipScript reads a fuzz input a byte at a time, reading zeros
// once it runs out, so every input decodes to some scenario.
type ownershipScript []byte

func (s *ownershipScript) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// scriptedInjector returns one scripted verdict per wire frame.
type scriptedInjector struct{ verdicts []Verdict }

func (in *scriptedInjector) Frame(index uint64, _ []byte) Verdict { return in.verdicts[index-1] }

// FuzzWireOwnership checks the wire's frame-ownership rule (see
// Transmit) against aliasing.  An input decodes to a link type, one to
// five receivers (each plain, coalesced with or without a moderation
// delay, or two-queue, and each optionally promiscuous), and up
// to eight frames, each unicast, broadcast or for an address nobody has,
// each with a verdict: none, drop, dup with or without a delay,
// delay, delay and dup, or a corrupted payload bit.  The sender builds
// every frame in one buffer it reuses, and every receiver scribbles
// over each frame it gets.  Every delivery must carry its frame's
// bytes, every receiver must get exactly the deliveries the verdicts
// imply, no two deliveries may share a backing array, and the
// sender's buffer must hold what the sender last wrote.
func FuzzWireOwnership(f *testing.F) {
	// One broadcast to three receivers, duplicated.
	f.Add([]byte{0, 2, 0, 0, 0, 0, 3, 10, 2})
	// A promiscuous tap beside a unicast receiver; the first frame
	// delayed, the second for an address nobody has.
	f.Add([]byte{1, 1, 1, 0, 1, 1, 20, 4, 50, 3, 8, 0})
	// A duplicate with a negative delay, which counts as zero.
	f.Add([]byte{0, 0, 2, 0, 0, 12, 3, 0xF0})
	// Coalesced, burst and two-queue receivers under a mixed run.
	f.Add([]byte{1, 3, 2, 4, 6, 1, 5, 0, 9, 6, 77, 1, 30, 5, 9, 9, 2, 14, 1, 4, 40, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := ownershipScript(data)
		link := LinkType(sc.next() & 1)
		s, net := newNet(t, link)
		tx := net.Attach(s.NewHost("tx"), 1)

		type delivery struct {
			rx, frame int
			buf       []byte
		}
		var expected [][]byte // each frame's bytes as it leaves the wire
		var got []delivery
		check := func(rx int, f []byte) {
			// The frame index sits right after the header, outside
			// the bits a corrupt verdict may flip.
			i := -1
			if len(f) > link.HeaderLen() {
				i = int(f[link.HeaderLen()])
			}
			if i < 0 || i >= len(expected) || !bytes.Equal(f, expected[i]) {
				t.Fatalf("receiver %d got altered bytes % x", rx, f)
			}
			got = append(got, delivery{rx, i, f})
			for j := range f {
				f[j] = 0xEE
			}
		}

		nRx := 1 + int(sc.next()%5)
		rxs := make([]*NIC, nRx)
		for r := range rxs {
			nic := net.Attach(s.NewHost("rx"), Addr(2+r))
			m := sc.next()
			nic.Promiscuous = m&1 != 0
			switch (m >> 1) % 4 {
			case 1:
				nic.SetCoalesce(3, 0)
			case 2:
				nic.SetCoalesce(3, 50*time.Microsecond)
			case 3:
				nic.SetQueues(2)
			}
			nic.Handler = func(frames [][]byte, spans []uint64, _ int) {
				if len(spans) != len(frames) {
					t.Fatalf("receiver %d got %d spans for %d frames", r, len(spans), len(frames))
				}
				for _, f := range frames {
					check(r, f)
				}
			}
			rxs[r] = nic
		}

		nFrames := 1 + int(sc.next()%8)
		inj := &scriptedInjector{}
		net.SetInjector(inj)
		want := make(map[[2]int]int) // (receiver, frame) -> deliveries
		buf := make([]byte, 0, link.MaxFrame())
		for i := 0; i < nFrames; i++ {
			var dst Addr
			switch d := int(sc.next()) % (nRx + 2); {
			case d < nRx:
				dst = rxs[d].addr
			case d == nRx:
				dst = link.BroadcastAddr()
			default:
				dst = 0x77
			}
			payload := make([]byte, 1+int(sc.next()%64))
			payload[0] = byte(i)
			for j := 1; j < len(payload); j++ {
				payload[j] = byte(i*31 + j)
			}
			hdr := link.HeaderLen()
			v := NoFault
			switch sc.next() % 7 {
			case 1:
				v.Drop = true
			case 2:
				v.Dup = true
			case 3:
				v.Dup, v.DupDelay = true, time.Duration(int8(sc.next()))*time.Microsecond
			case 4:
				v.Delay = time.Duration(1+sc.next()) * time.Microsecond
			case 5:
				v.Delay = time.Duration(1+sc.next()) * time.Microsecond
				v.Dup, v.DupDelay = true, time.Duration(sc.next())*time.Microsecond
			case 6:
				if bits := (len(payload) - 1) * 8; bits > 0 {
					v.FlipBit = (hdr+1)*8 + int(sc.next())%bits
				}
			}
			inj.verdicts = append(inj.verdicts, v)

			// The sender reuses one buffer for every frame.
			buf = append(buf[:0], link.Encode(dst, tx.addr, EtherTypePup, payload)...)
			onWire := bytes.Clone(buf)
			if v.FlipBit >= 0 {
				onWire[v.FlipBit/8] ^= 0x80 >> (v.FlipBit % 8)
			}
			expected = append(expected, onWire)
			if err := tx.Transmit(buf); err != nil {
				t.Fatal(err)
			}
			if v.Drop {
				continue
			}
			for r, nic := range rxs {
				if nic.accepts(dst, tx) {
					want[[2]int{r, i}] = 1
					if v.Dup {
						want[[2]int{r, i}] = 2
					}
				}
			}
		}
		sent := bytes.Clone(buf)
		s.Run(0)

		have := make(map[[2]int]int)
		owner := make(map[*byte]int)
		for k, d := range got {
			have[[2]int{d.rx, d.frame}]++
			if j, ok := owner[&d.buf[0]]; ok {
				t.Fatalf("deliveries %d and %d (receivers %d and %d, frame %d) share a backing array",
					j, k, got[j].rx, d.rx, d.frame)
			}
			owner[&d.buf[0]] = k
		}
		if _, ok := owner[&buf[0]]; ok {
			t.Fatal("a receiver was handed the sender's buffer")
		}
		if !bytes.Equal(buf, sent) {
			t.Fatalf("sender's buffer changed: % x, want % x", buf, sent)
		}
		for k, n := range want {
			if have[k] != n {
				t.Errorf("receiver %d got frame %d %d times, want %d", k[0], k[1], have[k], n)
			}
		}
		for k, n := range have {
			if want[k] == 0 {
				t.Errorf("receiver %d got frame %d %d times, want none", k[0], k[1], n)
			}
		}
	})
}
