package sim

// fifo is a queue that pops by advancing a head index instead of
// reslicing, so a queue that drains reuses its backing array and the
// steady state never touches the allocator.  A queue that never quite
// drains is slid back down when the array fills, so the dead slots
// before head are reclaimed instead of copied into a bigger array.
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) len() int { return len(f.items) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.items) == cap(f.items) && f.head > len(f.items)/2 {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	f.items = append(f.items, v)
}

// pop removes the oldest item; the queue must not be empty.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.items[f.head]
	f.items[f.head] = zero
	f.head++
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	}
	return v
}
