package live

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ethersim"
	"repro/internal/pfdev"
	"repro/internal/pup"
)

// TestScanRanksExact drives seeded random sequences of open, close,
// priority-changing SetFilter, Reorder and frames.  After every step
// each port's scan rank must be its index in the scan order, the scan
// order must be the stable sort by priority (at a Reorder, by priority
// then matches) of the order before the step, and a frame must reach
// the first port in that order bound to its socket — the port the
// table scan's rank sort puts first.
func TestScanRanksExact(t *testing.T) {
	for _, mode := range []struct {
		name string
		eval pfdev.EvalMode
	}{{"checked", pfdev.EvalChecked}, {"table", pfdev.EvalTable}} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode.name, seed), func(t *testing.T) {
				checkScanRanks(t, mode.eval, seed, 400)
			})
		}
	}
}

func checkScanRanks(t *testing.T, mode pfdev.EvalMode, seed int64, steps int) {
	link := ethersim.Ether10Mb
	r := rand.New(rand.NewSource(seed))
	d := NewDevice(Options{Link: link, Mode: mode})
	var order []*Port          // the model scan order
	sock := map[*Port]uint32{} // bound socket, 0 while unbound
	resort := func(byMatches bool) {
		slices.SortStableFunc(order, func(a, b *Port) int {
			if a.Priority() != b.Priority() {
				return int(b.Priority()) - int(a.Priority())
			}
			if byMatches && a.Matches() != b.Matches() {
				if a.Matches() > b.Matches() {
					return -1
				}
				return 1
			}
			return 0
		})
	}
	for step := 0; step < steps; step++ {
		what := ""
		switch k := r.Intn(36); {
		case k < 8 && len(order) < 24 || len(order) == 0:
			what = "open"
			order = append(order, d.Open())
		case k < 14:
			what = "close"
			i := r.Intn(len(order))
			order[i].Close()
			order = slices.Delete(order, i, i+1)
		case k < 24:
			what = "setfilter"
			port, s := order[r.Intn(len(order))], uint32(1+r.Intn(4))
			if err := port.SetFilter(pup.SocketFilter(link, uint8(r.Intn(4)), s)); err != nil {
				t.Fatal(err)
			}
			sock[port] = s
			resort(false)
		case k < 28:
			what = "reorder"
			d.reorder()
			resort(true)
		default:
			what = "frame"
			s := uint32(1 + r.Intn(4))
			var want *Port
			for _, port := range order {
				if sock[port] == s {
					want = port
					break
				}
			}
			before := map[*Port]uint64{}
			for _, port := range order {
				before[port] = port.Matches()
			}
			d.Input(pupFrame(t, link, s))
			for _, port := range order {
				exp := uint64(0)
				if port == want {
					exp = 1
				}
				if got := port.Matches() - before[port]; got != exp {
					t.Fatalf("seed %d step %d: socket %d frame: port %d matched %d, want %d", seed, step, s, port.ID(), got, exp)
				}
			}
		}
		ports, ranks := d.scanRanks()
		for i, rank := range ranks {
			if rank != i {
				t.Fatalf("seed %d step %d (%s): port %d at scan index %d has rank %d", seed, step, what, ports[i].ID(), i, rank)
			}
		}
		if !slices.Equal(ports, order) {
			t.Fatalf("seed %d step %d (%s): scan order is not the stable sort by priority", seed, step, what)
		}
	}
	// Not deferred: Close loops until the scan order is empty, which a
	// failed check may have left it unable to reach.
	d.Close()
}
