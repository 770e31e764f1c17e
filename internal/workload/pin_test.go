package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ethersim"
)

func pinSockets() []uint32 {
	s := make([]uint32, 16)
	for i := range s {
		s[i] = uint32(0x100 + i)
	}
	return s
}

// streamHash is SHA-256 over a generator's first n frames, each
// preceded by its length.
func streamHash(frame func(dst, src ethersim.Addr) []byte, n int) string {
	h := sha256.New()
	var l [4]byte
	for i := 0; i < n; i++ {
		f := frame(2, 1)
		binary.BigEndian.PutUint32(l[:], uint32(len(f)))
		h.Write(l[:])
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamPinned pins the generator's byte stream: every
// experiment and golden trace downstream of a Generator depends on
// these exact frames.  The hashes were computed at commit 18c82ea,
// before the generator assembled frames in a reused scratch buffer.
func TestGeneratorStreamPinned(t *testing.T) {
	want := map[string]string{
		"paper/3Mb/1":   "7a6ae520fc5ac86eb029248232f1269d2002f3d76c76db28e1d6c951a14c4140",
		"paper/3Mb/2":   "0780d47e335a9996bcf64f1da4b399109d3e902346bf63e50007edd2004e2931",
		"paper/10Mb/1":  "0d2747388a8f5ced027101da8365a56b92373561dcdb6cb81ff4d73dbfd1f321",
		"paper/10Mb/2":  "10788a733dcb57defa072aa1422843b963017228db650bc16d87a3ae6e08388f",
		"allpup/3Mb/1":  "c4664d95982bf69aa3d308b5d3eeacd2906816fdfaef054a5b8c029a7c02ca9a",
		"allpup/3Mb/2":  "6689f4a91f7df909113dad0e413ed659db59bcb5f32eff3e17429c0e74098a22",
		"allpup/10Mb/1": "ed0f9b16a25022b69be479ad60d6a2c5775223f25204d4a1d8341f19db2de937",
		"allpup/10Mb/2": "bd1ff6f8469a0e999d5bb2fa605369155d5a8f70ac9d3f2ba482b7e27ffa5761",
	}
	mixes := []struct {
		name string
		mix  Mix
	}{{"paper", PaperMix()}, {"allpup", Mix{PctPF: 100}}}
	for _, m := range mixes {
		for _, link := range []ethersim.LinkType{ethersim.Ether3Mb, ethersim.Ether10Mb} {
			for seed := int64(1); seed <= 2; seed++ {
				key := fmt.Sprintf("%s/%v/%d", m.name, link, seed)
				got := streamHash(NewGenerator(seed, link, m.mix, pinSockets()).Frame, 10000)
				if got != want[key] {
					t.Errorf("%s: stream hash %s, want %s", key, got, want[key])
				}
			}
		}
	}
}

// TestFlowGenStreamPinned pins FlowGen's byte stream, which pfload
// sends.  The hashes were computed at commit faec3ed, before FlowGen
// assembled its Pups in a reused scratch buffer.
func TestFlowGenStreamPinned(t *testing.T) {
	want := map[string]string{
		"3Mb/1":  "9057533c8eac7cbc6157256442345472950fb2bb3fefb97d7454fa4e4a6ad6ac",
		"3Mb/2":  "18ff4e1ab352ec2b3ba14b2d22c3f60da420b38fac6fd910b380174fdae40b52",
		"10Mb/1": "9439969a43efd380ec535bc6eee4d1624efa97320c8aeae361e5730fa0c65c58",
		"10Mb/2": "4ad94b5cb69ae6b047be6404b13ff7cffef0b1e82f94487ba4234c55845c119e",
	}
	for _, link := range []ethersim.LinkType{ethersim.Ether3Mb, ethersim.Ether10Mb} {
		for seed := int64(1); seed <= 2; seed++ {
			key := fmt.Sprintf("%v/%d", link, seed)
			got := streamHash(NewFlowGen(seed, link, pinSockets()).Frame, 10000)
			if got != want[key] {
				t.Errorf("%s: stream hash %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestFrameDoesNotAliasScratch: a caller may keep or scribble on a
// returned frame; neither may leak into the frames that follow, and
// the generator never writes to a frame it has handed out.
func TestFrameDoesNotAliasScratch(t *testing.T) {
	for _, mix := range []Mix{PaperMix(), {PctPF: 100}, {}} {
		ref := NewGenerator(5, ethersim.Ether10Mb, mix, pinSockets())
		g := NewGenerator(5, ethersim.Ether10Mb, mix, pinSockets())
		var kept [][]byte
		for i := 0; i < 500; i++ {
			want := ref.Frame(2, 1)
			got := g.Frame(2, 1)
			if string(got) != string(want) {
				t.Fatalf("mix %+v: frame %d differs after earlier frames were overwritten", mix, i)
			}
			for j := range got {
				got[j] = 0xFF
			}
			kept = append(kept, got)
		}
		for i, f := range kept {
			for _, b := range f {
				if b != 0xFF {
					t.Fatalf("mix %+v: generator wrote into returned frame %d", mix, i)
				}
			}
		}
	}
}
