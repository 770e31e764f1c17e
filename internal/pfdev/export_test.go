package pfdev

import (
	"fmt"
	"time"
)

// inputSpanned hands the device one frame with its provenance span on
// queue 0, as the interface hands an uncoalesced frame.
func (d *Device) inputSpanned(frame []byte, span uint64) {
	d.input([][]byte{frame}, []uint64{span}, 0)
}

// govAdmit is the governor's admission check under the name the
// backoff tests use.
func (g *PortGov) govAdmit(now time.Duration, cfg *GovConfig) bool { return g.Admit(now, cfg) }

// linearMatch and tableMatch run one scan kind whatever the device's
// evaluation mode, priced like a received frame's match, so the tests
// can hold the two against each other on one device.
func (d *Device) linearMatch(frame []byte, dst []*Port) ([]*Port, time.Duration) {
	m, costs := d.testMatch(), d.host.Costs()
	ports := d.portIndex.linearMatch(frame, dst, &m)
	return ports, d.price(&m.Tally, len(ports)-len(dst), &costs)
}

func (d *Device) tableMatch(frame []byte, dst []*Port) ([]*Port, time.Duration) {
	m, costs := d.testMatch(), d.host.Costs()
	ports := d.portIndex.tableMatch(frame, dst, &m)
	return ports, d.price(&m.Tally, len(ports)-len(dst), &costs)
}

func (d *Device) testMatch() Match {
	return Match{Now: d.host.Clock().Now(), Burst: d.curBurst, Tracer: d.host.Sim().Tracer(), Host: d.host.Name()}
}

// rankErr reports the first port in the scan order whose rank is not
// its index there.
func (x *TableIndex[P]) rankErr() error {
	for i, b := range x.binds {
		if b.rank != i {
			return fmt.Errorf("port %d at scan index %d has rank %d", b.id, i, b.rank)
		}
	}
	return nil
}
