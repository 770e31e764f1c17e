package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pup"
)

// link is the frame geometry of every live workload (pfserve's default).
const link = ethersim.Ether10Mb

const (
	poolSize   = 4096
	baseSocket = 0x100  // port i binds Pup socket baseSocket+i
	missSocket = 0x7000 // no port binds these: a planned no-match
	coldSocket = 0x8000 // churn ports bind these; no traffic carries them
	coldCount  = 64
)

// pool is the pre-generated traffic: poolSize frames drawn from the
// seed during set-up.  The program under test sees only the frames;
// the expectation table stays with the harness.
type pool struct {
	frames  [][]byte
	expect  []int // index of the port each frame must reach, -1 for a planned no-match
	payload int   // Pup data bytes per frame
	misses  int   // planned no-match frames in the pool
}

// idOffset is where the Pup identifier sits in a frame; the pool
// stores each frame's index there so a delivered frame names the
// original it must equal.
var idOffset = link.HeaderLen() + 4

// newPool draws the pool: every frame is a Pup to one of nports
// sockets (uniform), or with probability missShare to an unbound
// socket; payload bytes are random.  With hot >= 0 every frame goes to
// that one port instead.
func newPool(seed int64, nports, hot, payload int, missShare float64) *pool {
	rng := rand.New(rand.NewSource(seed))
	pl := &pool{frames: make([][]byte, poolSize), expect: make([]int, poolSize), payload: payload}
	for i := range pl.frames {
		port := hot
		if hot < 0 {
			port = rng.Intn(nports)
		}
		socket := uint32(baseSocket + port)
		if missShare > 0 && rng.Float64() < missShare {
			port, socket = -1, uint32(missSocket+rng.Intn(256))
			pl.misses++
		}
		data := make([]byte, payload)
		rng.Read(data)
		pkt := pup.Packet{
			Type: uint8(1 + rng.Intn(60)),
			ID:   uint32(i),
			Dst:  pup.PortAddr{Net: 1, Host: 2, Socket: socket},
			Src:  pup.PortAddr{Net: 1, Host: 1, Socket: 0x9000},
			Data: data,
		}
		body, err := pkt.Marshal()
		if err != nil {
			panic(err) // payload is a harness constant below pup.MaxData
		}
		pl.frames[i] = link.Encode(2, 1, ethersim.EtherTypePup, body)
		pl.expect[i] = port
	}
	return pl
}

// check verifies one delivered frame: it names a pool frame, equals it
// byte for byte, and arrived on the port that frame was addressed to.
func (pl *pool) check(data []byte, port int) bool {
	idx := frameIndex(data)
	return idx >= 0 && pl.expect[idx] == port && bytes.Equal(data, pl.frames[idx])
}

// frameIndex returns the pool index a frame carries, or -1.
func frameIndex(data []byte) int {
	if len(data) < idOffset+4 {
		return -1
	}
	idx := int(binary.BigEndian.Uint32(data[idOffset:]))
	if idx >= poolSize {
		return -1
	}
	return idx
}

// portFilter is the filter port i binds: the paper's figure 3-9 socket
// filter, every port at the same priority.
func portFilter(i int) filter.Filter {
	return pup.SocketFilter(link, 10, uint32(baseSocket+i))
}

// coldFilters are the filters churn operations bind and unbind.
func coldFilters() []filter.Filter {
	fs := make([]filter.Filter, coldCount)
	for i := range fs {
		fs[i] = pup.SocketFilter(link, 10, uint32(coldSocket+i))
	}
	return fs
}
