package workload

import (
	"testing"

	"repro/internal/ethersim"
)

// TestFrameAllocations: the pieces of a frame are assembled in the
// generator's scratch buffer (a Pup through pup's AppendBinary), so
// the frame Encode returns is the only allocation for every class and
// for FlowGen's Pups.
func TestFrameAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	cases := []struct {
		class string
		mix   Mix
		want  float64
	}{
		{"ip", Mix{PctIP: 100}, 1},
		{"arp", Mix{PctARP: 100}, 1},
		{"other", Mix{}, 1},
		{"pup", Mix{PctPF: 100}, 1},
	}
	for _, link := range []ethersim.LinkType{ethersim.Ether3Mb, ethersim.Ether10Mb} {
		for _, c := range cases {
			g := NewGenerator(1, link, c.mix, pinSockets())
			if got := testing.AllocsPerRun(200, func() { g.Frame(2, 1) }); got != c.want {
				t.Errorf("%v %s frame allocates %.1f, want %.0f", link, c.class, got, c.want)
			}
			if g.LastClass != c.class {
				t.Errorf("%v: generated %q frames, want %q", link, g.LastClass, c.class)
			}
		}
		fg := NewFlowGen(1, link, pinSockets())
		if got := testing.AllocsPerRun(200, func() { fg.Frame(2, 1) }); got != 1 {
			t.Errorf("%v FlowGen frame allocates %.1f, want 1", link, got)
		}
	}
}
