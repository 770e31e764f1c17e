package sim

import "testing"

// A queue that never quite drains must neither lose order nor grow
// without bound: the live items slide down when the array fills.
func TestFifoNeverDrainingStaysBounded(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	for i := 0; i < 3; i++ {
		f.push(next)
		next++
	}
	for round := 0; round < 10000; round++ {
		f.push(next)
		next++
		if got := f.pop(); got != want {
			t.Fatalf("round %d: popped %d, want %d", round, got, want)
		}
		want++
		if f.len() != 3 {
			t.Fatalf("round %d: len %d, want 3", round, f.len())
		}
	}
	if cap(f.items) > 16 {
		t.Fatalf("backing array grew to %d slots for 4 live items", cap(f.items))
	}
	for f.len() > 0 {
		if got := f.pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if f.head != 0 || len(f.items) != 0 {
		t.Fatalf("drained queue not reset: head %d len %d", f.head, len(f.items))
	}
}
