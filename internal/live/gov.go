package live

// The live device runs pfdev's resource governor itself, not a copy:
// each port's token bucket and doubling-backoff quarantine is the
// pfdev.PortGov inside its pfdev.Binding, priced by the same bind-time
// bound, and admission control is a pfdev.Admission.  Both take the
// caller's clock reading, so here Rate is instruction units per wall
// second and quarantine windows are real durations.  What stays in this
// file is what genuinely differs: the backlog signal (the live device
// has no virtual pending-delivery queue) and the shed accounting.

import (
	"time"

	"repro/internal/trace"
)

// backlog is the admission controller's load signal.  The live device
// enqueues synchronously (no deferred "pf" CPU charge), so the backlog
// is exactly the queued total.
func (d *Device) backlog() int { return d.queuedTotal }

// shedFrame accounts one frame refused at demux entry at now.
func (d *Device) shedFrame(span uint64, now time.Duration) {
	d.kernelDrops++
	if d.tr != nil {
		d.tr.Drop(now, d.name, "admission")
	}
	d.tr.SpanDrop(span, now, d.name, trace.DropAdmission)
}
