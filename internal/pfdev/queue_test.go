package pfdev

import (
	"testing"
	"time"
)

// TestBatchResidencyPerPacket queues packets at distinct times and
// reads them with one batch: AvgResidency must be the exact mean of
// each packet's own wait, not the first packet's wait for all of them,
// and the mean must be over packets, not batches.
func TestBatchResidencyPerPacket(t *testing.T) {
	var q PortQueue
	total := 0
	q.InitQueue("h", &total)
	for _, at := range []time.Duration{1 * time.Millisecond, 4 * time.Millisecond, 10 * time.Millisecond} {
		q.Push(nil, at, 0, []byte{0}, at, 0)
	}
	dst := make([]Packet, 3)
	q.TakeBatch(dst, 20*time.Millisecond)

	var ps PortStats
	q.QueueStats(&ps)
	// Waits of 19, 16 and 10 mSec.
	if want := 15 * time.Millisecond; ps.AvgResidency != want {
		t.Errorf("AvgResidency = %v, want %v", ps.AvgResidency, want)
	}
	if ps.BatchReads != 1 || ps.BatchPackets != 3 || total != 0 {
		t.Errorf("batch reads %d, packets %d, device backlog %d; want 1, 3, 0",
			ps.BatchReads, ps.BatchPackets, total)
	}
}
