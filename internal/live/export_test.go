package live

// ScanVisits returns how many ports table-mode matches have reached so
// far — the device-local counter behind the O(accepts) scan tests.
func (d *Device) ScanVisits() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.ScanVisits()
}
