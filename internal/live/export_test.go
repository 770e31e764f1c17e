package live

import (
	"reflect"
	"slices"
)

// ScanVisits returns how many ports table-mode matches have reached so
// far — the device-local counter behind the O(accepts) scan tests.
func (d *Device) ScanVisits() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.ScanVisits()
}

// scanRanks returns the scan order and each port's scan rank in it.
// pfdev keeps Binding.rank unexported, so it is read by reflection.
func (d *Device) scanRanks() ([]*Port, []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ports := slices.Clone(d.idx.Ports())
	ranks := make([]int, len(ports))
	for i, p := range ports {
		ranks[i] = int(reflect.ValueOf(&p.Binding).Elem().FieldByName("rank").Int())
	}
	return ports, ranks
}

// reorder runs a §3.2 busy-first reorder pass now.
func (d *Device) reorder() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.idx.Reorder()
}
