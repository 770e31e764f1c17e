package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/vtime"
)

// TestEventHeapOrder drives the hand-written heap with interleaved
// pushes and pops over a narrow range of times (so ties abound) and
// checks the two orders every hash depends on: by time, and by
// scheduling order within one instant.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(vtime.Costs{})
	var lastWhen time.Duration
	var lastSeq uint64
	popped := 0
	check := func() {
		it := s.pop()
		if it.when < lastWhen || (it.when == lastWhen && popped > 0 && it.seq <= lastSeq) {
			t.Fatalf("pop %d: (%v, %d) after (%v, %d)", popped, it.when, it.seq, lastWhen, lastSeq)
		}
		lastWhen, lastSeq = it.when, it.seq
		s.now = it.when // as loop does; At clamps to it
		popped++
	}
	pushed := 0
	for round := 0; round < 200; round++ {
		for i := rng.Intn(40); i > 0; i-- {
			s.After(time.Duration(rng.Intn(8)), nil)
			pushed++
		}
		for i := rng.Intn(40); i > 0 && len(s.events) > 0; i-- {
			check()
		}
	}
	for len(s.events) > 0 {
		check()
	}
	if popped != pushed {
		t.Fatalf("popped %d of %d events", popped, pushed)
	}
}
