package ethersim

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vtime"
)

// dupThird duplicates wire frame 3 and leaves everything else alone.
type dupThird struct{}

func (dupThird) Frame(index uint64, frame []byte) Verdict {
	if index == 3 {
		v := NoFault
		v.Dup = true
		return v
	}
	return NoFault
}

// dropRig transmits n frames whose first payload byte is the 1-based
// wire index and returns the indices the receiver saw, in order.
func dropRig(t *testing.T, n int, cfg func(*Network)) ([]int, *Network) {
	t.Helper()
	s := sim.New(vtime.Costs{})
	net := New(s, Ether3Mb)
	tx := net.Attach(s.NewHost("a"), 1)
	var got []int
	net.Attach(s.NewHost("b"), 2).Handler = perFrame(func(frame []byte) {
		_, _, _, payload, err := Ether3Mb.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, int(payload[0]))
	})
	cfg(net)
	for i := 1; i <= n; i++ {
		tx.Transmit(Ether3Mb.Encode(2, 1, EtherTypePup3Mb, []byte{byte(i)}))
	}
	s.Run(0)
	return got, net
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDropInjectionPinnedIndices pins exactly which wire-frame indices
// the folded DropEvery/DropFn/Injector path discards — loss injection
// is a schedule, not a probability.
func TestDropInjectionPinnedIndices(t *testing.T) {
	t.Run("DropEvery", func(t *testing.T) {
		got, net := dropRig(t, 10, func(n *Network) { n.DropEvery = 3 })
		if want := []int{1, 2, 4, 5, 7, 8, 10}; !eq(got, want) {
			t.Fatalf("delivered %v, want %v (frames 3, 6, 9 dropped)", got, want)
		}
		if net.Dropped != 3 {
			t.Fatalf("Dropped = %d, want 3", net.Dropped)
		}
	})

	t.Run("DropFn", func(t *testing.T) {
		got, net := dropRig(t, 10, func(n *Network) {
			n.DropFn = func(index uint64, _ []byte) bool { return index == 2 || index == 5 }
		})
		if want := []int{1, 3, 4, 6, 7, 8, 9, 10}; !eq(got, want) {
			t.Fatalf("delivered %v, want %v (frames 2, 5 dropped)", got, want)
		}
		if net.Dropped != 2 {
			t.Fatalf("Dropped = %d, want 2", net.Dropped)
		}
	})

	t.Run("injector verdict preempts the legacy wrappers", func(t *testing.T) {
		// The injector duplicates frame 3; because it issued a
		// verdict, DropEvery=3 is not consulted for that frame — it
		// still drops 6 and 9.
		got, net := dropRig(t, 10, func(n *Network) {
			n.DropEvery = 3
			n.SetInjector(dupThird{})
		})
		if want := []int{1, 2, 3, 3, 4, 5, 7, 8, 10}; !eq(got, want) {
			t.Fatalf("delivered %v, want %v (3 duplicated, 6 and 9 dropped)", got, want)
		}
		if net.Dropped != 2 {
			t.Fatalf("Dropped = %d, want 2", net.Dropped)
		}
	})
}
