package pfdev

import "time"

// govAdmit is the governor's admission check under the name the
// backoff tests use.
func (g *PortGov) govAdmit(now time.Duration, cfg *GovConfig) bool { return g.Admit(now, cfg) }
