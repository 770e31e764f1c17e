package pfdev

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestScanRanksExact drives seeded random sequences of open, close,
// priority-changing SetFilter, Reorder, frames, and host crashes
// followed by SetFilter and Close on the ports the crash killed and
// fresh opens.  After every step each port's rank must be its index in
// the scan order, the scan order must be the stable sort by priority
// (at a Reorder, by priority then matches) of the order before the
// step, and a frame must reach the first port in that order bound to
// its socket — the port the table scan's rank sort puts first.
func TestScanRanksExact(t *testing.T) {
	for _, mode := range []struct {
		name string
		eval EvalMode
	}{{"checked", EvalChecked}, {"table", EvalTable}} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode.name, seed), func(t *testing.T) { checkScanRanks(t, mode.eval, seed, 400) })
		}
	}
}

func checkScanRanks(t *testing.T, mode EvalMode, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	w := newScanWorld(Options{Mode: mode})
	var order, dead []*Port    // the model scan order; ports a crash closed
	sock := map[*Port]uint32{} // bound socket, 0 while unbound
	resort := func(byMatches bool) {
		slices.SortStableFunc(order, func(a, b *Port) int {
			if a.priority != b.priority {
				return int(b.priority) - int(a.priority)
			}
			if byMatches && a.matches != b.matches {
				if a.matches > b.matches {
					return -1
				}
				return 1
			}
			return 0
		})
	}
	bind := func(port *Port) {
		s := uint32(1 + r.Intn(4))
		w.ctl(func(p *sim.Proc) {
			if err := port.SetFilter(p, socketFilter(uint8(r.Intn(4)), s)); err != nil {
				t.Error(err)
			}
		})
		sock[port] = s
	}
	for step := 0; step < steps; step++ {
		what := ""
		switch k := r.Intn(40); {
		case k < 8 && len(order) < 24 || len(order) == 0:
			what = "open"
			w.ctl(func(p *sim.Proc) { order = append(order, w.d.Open(p)) })
		case k < 14:
			what = "close"
			i := r.Intn(len(order))
			w.ctl(func(p *sim.Proc) { order[i].Close(p) })
			order = slices.Delete(order, i, i+1)
		case k < 24:
			what = "setfilter"
			bind(order[r.Intn(len(order))])
			resort(false)
		case k < 28:
			what = "reorder"
			w.d.Reorder()
			resort(true)
		case k < 36:
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
			w.deliver(pupTo(1, 2, 1, s))
			for _, port := range order {
				exp := uint64(0)
				if port == want {
					exp = 1
				}
				if got := port.Matches() - before[port]; got != exp {
					t.Fatalf("seed %d step %d: socket %d frame: port %d matched %d, want %d", seed, step, s, port.id, got, exp)
				}
			}
		case k < 37:
			what = "crash"
			w.host.Crash()
			w.host.Restart()
			dead, order = append(dead, order...), nil
		default:
			if len(dead) == 0 {
				continue
			}
			what = "dead port"
			port := dead[r.Intn(len(dead))]
			if r.Intn(2) == 0 {
				bind(port)
			} else {
				w.ctl(func(p *sim.Proc) { port.Close(p) })
			}
		}
		if err := w.d.rankErr(); err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
		}
		if !slices.Equal(w.d.Ports(), order) {
			t.Fatalf("seed %d step %d (%s): scan order is not the stable sort by priority", seed, step, what)
		}
	}
}
