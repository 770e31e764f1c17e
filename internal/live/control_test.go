package live

// The read reply's binary framing: frames come back byte-identical
// whatever they contain, control verbs interleave with reads without
// the stream slipping, a reply costs a fixed number of allocations
// however many frames it carries, and no reply byte stream — truncated,
// lying or random — makes the decoder panic or over-allocate.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
)

// acceptAll is the empty program, which accepts every frame.
var acceptAll = filter.Filter{Priority: 1}

// startControl serves a fresh checked device on loopback and returns
// it with a client holding one accept-all port.
func startControl(t *testing.T, link ethersim.LinkType) (*Device, *Client, int) {
	t.Helper()
	dev := NewDevice(Options{Link: link})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, dev, nil)
	c, err := DialControl(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		dev.Close()
	})
	id, err := c.Open(4096, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFilter(id, acceptAll); err != nil {
		t.Fatal(err)
	}
	return dev, c, id
}

// Every length from 1 to the link's largest frame, every byte value at
// every position (frame l is l, l+1, l+2, ... mod 256, so '\n', '"',
// '\\' and 0x00 each turn up throughout), through a live server and
// back, with ping, setfilter and stats between the reads, and then all
// at once.
func TestReadReplyBinarySafe(t *testing.T) {
	link := ethersim.Ether10Mb
	dev, c, id := startControl(t, link)
	var want [][]byte
	for l := 1; l <= link.MaxFrame(); l++ {
		f := make([]byte, l)
		for j := range f {
			f[j] = byte(l + j)
		}
		want = append(want, f)
	}
	const inject = 97 // frames queued per round; reads take at most 40
	for start := 0; start < len(want); start += inject {
		batch := want[start:min(start+inject, len(want))]
		for _, f := range batch {
			dev.Input(f)
		}
		var got [][]byte
		for len(got) < len(batch) {
			pkts, err := c.Read(id, 40, time.Second)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if len(pkts) == 0 {
				t.Fatalf("read timed out with %d of %d frames back", len(got), len(batch))
			}
			got = append(got, pkts...)
			if err := c.Ping(); err != nil {
				t.Fatalf("ping between reads: %v", err)
			}
			if err := c.SetFilter(id, acceptAll); err != nil {
				t.Fatalf("setfilter between reads: %v", err)
			}
			if st, err := c.Stats(); err != nil || len(st.Ports) != 1 {
				t.Fatalf("stats between reads: %v", err)
			}
		}
		sameFrames(t, got, batch)
	}

	// All of them in one reply: 1.15 MB, more than the client's buffer
	// holds, so the frames land in more than one arena.
	for _, f := range want {
		dev.Input(f)
	}
	got, err := c.Read(id, 0, time.Second)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	sameFrames(t, got, want)
}

func sameFrames(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames, injected %d", len(got), len(want))
	}
	for k, f := range want {
		if !bytes.Equal(got[k], f) {
			t.Fatalf("frame of %d bytes came back as %d bytes %x...", len(f), len(got[k]), got[k][:min(8, len(got[k]))])
		}
	}
}

// A read reply costs the same allocations, client and server together,
// whether it carries one frame or 64: one arena and one slice of frame
// headers on the client, never a buffer per frame.
func TestClientReadAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	dev, c, id := startControl(t, ethersim.Ether10Mb)
	frame := make([]byte, 512)
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(100, func() {
			for i := 0; i < k; i++ {
				dev.Input(frame)
			}
			if pkts, err := c.Read(id, 0, 0); err != nil || len(pkts) != k {
				t.Fatalf("read %d of %d frames: %v", len(pkts), k, err)
			}
		})
	}
	// Measured on go1.24: 15 per reply, all but four of them the JSON
	// request and header on the two ends; the rest are ReadBatch's
	// result, the server's frame list, and the client's frame-header
	// slice and arena.
	const want = 15
	for _, k := range []int{1, 8, 64} {
		if a := allocs(k); a != want {
			t.Errorf("read of a %d-frame reply allocates %.0f times, want %d", k, a, want)
		}
	}
}

// FuzzReadReply feeds arbitrary bytes to the reply decoder: it must
// never panic, and beyond what encoding/json spends on the header line
// it may allocate at most a small multiple of its input — a header or
// record length that lies costs nothing until the bytes arrive.
func FuzzReadReply(f *testing.F) {
	rec := func(frames ...string) []byte {
		var b []byte
		for _, fr := range frames {
			b = binary.BigEndian.AppendUint32(b, uint32(len(fr)))
			b = append(b, fr...)
		}
		return b
	}
	f.Add([]byte("{\"ok\":true}\n"))
	f.Add(append([]byte("{\"ok\":true,\"port\":3,\"drops\":2,\"n\":2}\n"), rec("a\n\"", "\x00\\")...))
	f.Add(append([]byte("{\"ok\":true,\"n\":3}\n"), rec("0123456789", "01234")[:20]...))
	f.Add([]byte("{\"ok\":true,\"n\":16384}\n\x00\x00\x00\x01x"))
	f.Add([]byte("{\"ok\":true,\"n\":1}\n\x00\x01\x00\x01"))
	f.Add([]byte("{\"ok\":false,\"err\":\"no such port 9\"}\n"))
	f.Add([]byte("{\"ok\":true,\"stats\":{\"ports\":[{}],\"device\":{}}}\n"))
	br := bufio.NewReaderSize(nil, ctlBufSize)
	f.Fuzz(func(t *testing.T, data []byte) {
		line, _, _ := bytes.Cut(data, []byte("\n"))
		jsonCost := allocBytes(func() {
			var h replyHeader
			json.Unmarshal(line, &h)
		})
		var resp Response
		var err error
		cost := allocBytes(func() {
			br.Reset(bytes.NewReader(data))
			resp, err = readReply(br)
		})
		if err == nil {
			carried := 0
			for _, p := range resp.Packets {
				carried += 4 + len(p)
			}
			if carried > len(data) {
				t.Fatalf("%d bytes of records decoded from %d bytes of input", carried, len(data))
			}
		}
		if !raceEnabled && cost > jsonCost+8*uint64(len(data))+4096 {
			t.Fatalf("decoding %d bytes allocated %d (header alone %d)", len(data), cost, jsonCost)
		}
	})
}

// allocBytes is the heap bytes fn allocates: the least of three runs,
// since TotalAlloc also counts whatever other goroutines (the fuzzing
// engine's among them) allocate meanwhile.
func allocBytes(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
