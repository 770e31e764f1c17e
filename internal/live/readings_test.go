package live

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/trace"
)

// steppingClock is a fake device clock that counts its readings: each
// Now returns the previous reading plus one millisecond, so every
// reading is distinct and a test can tell which one a stamp came from.
// Timers ride the wall clock; these tests never arm one.
type steppingClock struct {
	clock.Clock
	last  time.Duration
	reads int
}

func newSteppingClock() *steppingClock { return &steppingClock{Clock: clock.NewWall()} }

func (c *steppingClock) Now() time.Duration {
	c.reads++
	c.last += time.Millisecond
	return c.last
}

// readings returns how many times fn read the clock.
func (c *steppingClock) readings(fn func()) int {
	before := c.reads
	fn()
	return c.reads - before
}

// TestInputClockReadings pins the live receive path at one wall-clock
// reading per frame: the arrival reading stamps the match, the
// governor, the drop and the enqueue, whatever the frame's fate and
// however many ports accept it.  Only a tracer buys a second, post-match
// reading for its filter and queue marks.
func TestInputClockReadings(t *testing.T) {
	link := ethersim.Ether10Mb
	// Generous enough never to quarantine; low watermarks so a few
	// queued frames trip admission shedding.
	gov := pfdev.GovConfig{Enabled: true, Rate: 1e9, Burst: 1 << 30, AdmissionHigh: 4, AdmissionLow: 1}
	for _, mode := range []pfdev.EvalMode{pfdev.EvalChecked, pfdev.EvalTable} {
		for _, g := range []pfdev.GovConfig{{}, gov} {
			t.Run(fmt.Sprintf("mode=%d/gov=%v", mode, g.Enabled), func(t *testing.T) {
				clk := newSteppingClock()
				d := NewDevice(Options{Link: link, Mode: mode, Gov: g, Clock: clk})
				defer d.Close()
				const n = 16
				port := openSocketPorts(t, d, n)[n/2]
				hit, miss := pupFrame(t, link, scanBase+n/2), pupFrame(t, link, scanBase-1)
				want := func(what string, got, want int) {
					t.Helper()
					if got != want {
						t.Errorf("%s: %d clock readings, want %d", what, got, want)
					}
				}
				want("hit", clk.readings(func() { d.Input(hit) }), 1)
				want("miss", clk.readings(func() { d.Input(miss) }), 1)
				want("non-empty ReadBatch", clk.readings(func() {
					if got, err := port.ReadBatch(0, -1); err != nil || len(got) != 1 {
						t.Fatalf("ReadBatch: %d packets, %v", len(got), err)
					}
				}), 1)
				want("empty non-blocking ReadBatch", clk.readings(func() { port.ReadBatch(0, -1) }), 0)

				mons := make([]*Port, 3)
				for i := range mons {
					mons[i] = d.Open()
					mons[i].SetCopyAll(true)
					if err := mons[i].SetFilter(filter.Filter{Priority: uint8(20 + i)}); err != nil {
						t.Fatal(err)
					}
				}
				want("3 copy-all accepts", clk.readings(func() { d.Input(miss) }), 1)
				for i, mon := range mons {
					if got, _ := mon.ReadBatch(0, -1); len(got) != 1 {
						t.Fatalf("monitor %d took %d frames, want 1", i, len(got))
					}
					mon.Close()
				}

				if !g.Enabled {
					return
				}
				for i := 0; i < g.AdmissionHigh; i++ {
					d.Input(hit)
				}
				drops := d.KernelDrops()
				want("admission shed", clk.readings(func() { d.Input(hit) }), 1)
				if d.KernelDrops() != drops+1 || d.GovStats().AdmissionSheds == 0 {
					t.Fatalf("the frame was not shed: kernel drops %d -> %d, %+v", drops, d.KernelDrops(), d.GovStats())
				}
			})
		}
	}

	t.Run("traced", func(t *testing.T) {
		clk := newSteppingClock()
		tr := trace.New()
		tr.EnableSpans(trace.SpanConfig{Ring: 64})
		d := NewDevice(Options{Link: link, Clock: clk, Tracer: tr})
		defer d.Close()
		openSocketPorts(t, d, 4)
		if got := clk.readings(func() { d.Input(pupFrame(t, link, scanBase+1)) }); got != 2 {
			t.Errorf("traced hit: %d clock readings, want 2", got)
		}
	})
}

// TestInputStampIsArrival pins what a live stamp means.  Untraced, the
// delivered Packet.Stamp is the arrival reading and residency runs from
// it to the read reading, exactly.  Traced, the frame's stage marks
// stay in order: demux <= filter <= queue.
func TestInputStampIsArrival(t *testing.T) {
	link := ethersim.Ether10Mb
	frame := pupFrame(t, link, scanBase+1)

	t.Run("untraced", func(t *testing.T) {
		clk := newSteppingClock()
		d := NewDevice(Options{Link: link, Clock: clk})
		defer d.Close()
		port := openSocketPorts(t, d, 4)[1]
		port.SetStamp(true)
		arrival := clk.last + time.Millisecond // Input's first reading
		d.Input(frame)
		got, err := port.ReadBatch(0, -1)
		if err != nil || len(got) != 1 {
			t.Fatalf("ReadBatch: %d packets, %v", len(got), err)
		}
		read := clk.last
		if got[0].Stamp != arrival {
			t.Errorf("Stamp = %v, want the arrival reading %v", got[0].Stamp, arrival)
		}
		if res := port.Stats().AvgResidency; res != read-arrival {
			t.Errorf("AvgResidency = %v, want read - arrival = %v", res, read-arrival)
		}
	})

	t.Run("traced", func(t *testing.T) {
		clk := newSteppingClock()
		tr := trace.New()
		sp := tr.EnableSpans(trace.SpanConfig{Ring: 64})
		d := NewDevice(Options{Link: link, Clock: clk, Tracer: tr})
		defer d.Close()
		openSocketPorts(t, d, 4)
		d.Input(frame)
		recs := sp.RecordsSnapshot()
		if len(recs) != 1 {
			t.Fatalf("%d span records, want 1", len(recs))
		}
		prev := time.Duration(-1)
		for _, s := range []trace.Stage{trace.StageDemux, trace.StageFilter, trace.StageQueue} {
			at, ok := recs[0].MarkAt(s)
			if !ok {
				t.Fatalf("span has no %v mark", s)
			}
			if at < prev {
				t.Errorf("%v mark at %v precedes the previous mark at %v", s, at, prev)
			}
			prev = at
		}
	})
}
