package pfdev

import (
	"testing"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// burnFilter is the maximum-length always-reject program: every frame
// charges MaxProgramLen instruction units and falls through to the
// next port — the worst legal filter the language admits.
func burnFilter(prio uint8) filter.Filter {
	p := filter.MaxInstrsProgram()
	p[len(p)-1] = filter.MkInstr(filter.PUSHZERO, filter.AND)
	return filter.Filter{Priority: prio, Program: p}
}

// tightGov is a governor calibrated so a burn filter is over budget
// within a few frames while a socket filter never is.
func tightGov() GovConfig {
	return GovConfig{
		Enabled:        true,
		Rate:           20000,
		Burst:          300,
		QuarantineBase: 10 * time.Millisecond,
		QuarantineMax:  80 * time.Millisecond,
		QuarantineCool: 50 * time.Millisecond,
		AdmissionHigh:  100000, // effectively off for quarantine tests
		AdmissionLow:   1000,
	}
}

// govScenario runs a hostile-plus-victim rig: a high-priority burn
// filter ahead of a victim socket-35 port, with n frames paced at
// interval.  Returns the two ports' stats and the device.
func govScenario(t *testing.T, opt Options, n int, interval time.Duration) (victim, hostile PortStats, dev *Device) {
	t.Helper()
	r := newRig(t, opt)
	var vp, hp *Port
	var sender *Port
	var vGot int
	// Phase 1: bind everything while the wire is quiet.  Once the burn
	// filter starts charging, the kernel is saturated and user syscalls
	// starve — setup racing the storm would leave the victim half
	// configured for most of the run.
	r.s.Spawn(r.hb, "setup", func(p *sim.Proc) {
		vp = r.db.Open(p)
		if err := vp.SetFilter(p, socketFilter(10, 35)); err != nil {
			t.Error(err)
			return
		}
		vp.SetQueueLimit(p, 4*n)
		vp.SetTimeout(p, 20*time.Millisecond)
		hp = r.db.Open(p)
		if err := hp.SetFilter(p, burnFilter(20)); err != nil {
			t.Error(err)
		}
	})
	r.s.Spawn(r.ha, "setup", func(p *sim.Proc) {
		sender = r.da.Open(p)
	})
	r.s.Run(0)

	r.s.Spawn(r.hb, "victim", func(p *sim.Proc) {
		idle := 0
		for idle < 2 {
			if _, err := vp.Read(p); err != nil {
				idle++
			} else {
				idle = 0
				vGot++
			}
		}
	})
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < n; i++ {
			if err := sender.Write(p, pupTo(2, 1, 1, 35)); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(interval)
		}
	})
	r.s.Run(0)
	if vGot != n {
		t.Fatalf("victim read %d of %d frames", vGot, n)
	}
	return vp.Stats(), hp.Stats(), r.db
}

// TestQuarantineIsolatesHostilePort checks the token bucket end to
// end: the burn filter is quarantined with doubling backoff, its
// evaluations stop being charged, and the victim port — whose cheap
// filter stays within budget — receives every frame and is never
// governed.
func TestQuarantineIsolatesHostilePort(t *testing.T) {
	const n = 60
	victim, hostile, _ := govScenario(t, Options{Gov: tightGov()}, n, time.Millisecond)

	if hostile.Quarantines < 2 {
		t.Errorf("hostile port quarantined %d times, want repeated offense", hostile.Quarantines)
	}
	if hostile.QuarantineSkips < n/2 {
		t.Errorf("hostile filter skipped only %d of %d scans", hostile.QuarantineSkips, n)
	}
	if hostile.FuelSpent == 0 {
		t.Errorf("hostile port charged no fuel; admissions never happened")
	}
	// Fuel can never exceed what the bucket could ever hold: the
	// initial burst plus the whole run's refill.
	cfg := tightGov()
	if max := uint64(cfg.Burst) + uint64(cfg.Rate); hostile.FuelSpent > max {
		t.Errorf("hostile fuel %d exceeds bucket capacity bound %d", hostile.FuelSpent, max)
	}
	if victim.Quarantines != 0 || victim.QuarantineSkips != 0 {
		t.Errorf("victim port governed: %d quarantines, %d skips",
			victim.Quarantines, victim.QuarantineSkips)
	}
	if victim.Matched != n {
		t.Errorf("victim matched %d of %d", victim.Matched, n)
	}
	if victim.AvgResidency <= 0 {
		t.Errorf("victim residency accounting dead: %v", victim.AvgResidency)
	}
}

// TestQuarantineBackoffDoubles reads the backoff state directly: a
// port re-offending promptly after each penalty window must see its
// window double up to the cap, and a long clean spell must reset it.
func TestQuarantineBackoffDoubles(t *testing.T) {
	s := sim.New(vtime.DefaultCosts())
	net := ethersim.New(s, ethersim.Ether3Mb)
	ha := s.NewHost("a")
	na := net.Attach(ha, 1)
	cfg := tightGov()
	d := Attach(na, nil, Options{Gov: cfg})
	var port *Port
	s.Spawn(ha, "ctl", func(p *sim.Proc) {
		port = d.Open(p)
		if err := port.SetFilter(p, burnFilter(10)); err != nil {
			t.Error(err)
		}
	})
	s.Run(0)

	port.govTokens = 0
	now := s.Now()
	want := cfg.QuarantineBase
	for i := 0; i < 5; i++ {
		if port.govAdmit(now, &d.opt.Gov) {
			t.Fatalf("offense %d: admitted with an empty bucket", i)
		}
		if port.quarPenalty != want {
			t.Fatalf("offense %d: penalty %v, want %v", i, port.quarPenalty, want)
		}
		// Re-offend immediately after the window expires; drain the
		// refill the elapsed window earned so the bucket stays empty.
		now = port.quarUntil + time.Millisecond
		port.govRefillNow(now, &d.opt.Gov)
		port.govTokens = 0
		if want *= 2; want > cfg.QuarantineMax {
			want = cfg.QuarantineMax
		}
	}
	// A clean spell past QuarantineCool earns a fresh base penalty.
	now = port.quarUntil + cfg.QuarantineCool + time.Millisecond
	port.govRefillNow(now, &d.opt.Gov)
	port.govTokens = 0
	if port.govAdmit(now, &d.opt.Gov) {
		t.Fatal("admitted with an empty bucket after cool-down")
	}
	if port.quarPenalty != cfg.QuarantineBase {
		t.Fatalf("penalty after cool-down = %v, want reset to %v", port.quarPenalty, cfg.QuarantineBase)
	}
}

// TestDropQuotaAttribution pins the taxonomy rule in both match
// engines: a frame that matches nothing while a quarantined filter was
// skipped dies as DropQuota (the governor's verdict), one that matches
// nothing with every filter heard dies as DropNoMatch — and the span
// ledger conserves exactly either way.
func TestDropQuotaAttribution(t *testing.T) {
	for _, mode := range []EvalMode{EvalChecked, EvalTable} {
		s := sim.New(vtime.DefaultCosts())
		tr := trace.New()
		sp := tr.EnableSpans(trace.SpanConfig{Ring: 512})
		s.SetTracer(tr)
		net := ethersim.New(s, ethersim.Ether3Mb)
		ha := s.NewHost("a")
		na := net.Attach(ha, 1)
		d := Attach(na, nil, Options{Mode: mode, Gov: tightGov()})
		var victim, hostile *Port
		s.Spawn(ha, "ctl", func(p *sim.Proc) {
			victim = d.Open(p)
			if err := victim.SetFilter(p, socketFilter(10, 35)); err != nil {
				t.Error(err)
			}
			victim.SetQueueLimit(p, 1<<16)
			hostile = d.Open(p)
			if err := hostile.SetFilter(p, burnFilter(20)); err != nil {
				t.Error(err)
			}
		})
		s.Run(0)

		miss := pupTo(1, 2, 1, 99)
		inject := func() {
			span := tr.SpanOrigin(s.Now(), "a")
			d.inputSpanned(miss, span)
			s.Run(0)
		}
		// Before the bucket drains every miss is a clean no-match.
		inject()
		if sp.Drops[trace.DropNoMatch] == 0 {
			t.Fatalf("mode %v: first miss not DropNoMatch", mode)
		}
		// Drain the burn port's bucket and let it quarantine; misses
		// scanned with its filter skipped must switch to DropQuota.
		for i := 0; i < 40; i++ {
			inject()
		}
		if sp.Drops[trace.DropQuota] == 0 {
			t.Errorf("mode %v: no DropQuota despite quarantine (quarantines=%d)",
				mode, hostile.Stats().Quarantines)
		}
		if hostile.Stats().Quarantines == 0 {
			t.Errorf("mode %v: burn port never quarantined", mode)
		}
		if victim.Stats().Quarantines != 0 {
			t.Errorf("mode %v: victim quarantined", mode)
		}
		if got, want := sp.Created, sp.DeliveredUser+sp.DeliveredKernel+sp.TotalDrops()+sp.Live(); got != want {
			t.Errorf("mode %v: conservation broken: created=%d accounted=%d", mode, got, want)
		}
	}
}

// TestAdmissionHysteresis checks the overload controller: input is
// shed as DropAdmission once the backlog crosses the high watermark,
// admission resumes only after it drains below the low one, and the
// ledger conserves through the whole episode.
func TestAdmissionHysteresis(t *testing.T) {
	s := sim.New(vtime.DefaultCosts())
	tr := trace.New()
	sp := tr.EnableSpans(trace.SpanConfig{Ring: 512})
	s.SetTracer(tr)
	net := ethersim.New(s, ethersim.Ether3Mb)
	ha := s.NewHost("a")
	na := net.Attach(ha, 1)
	gov := GovConfig{
		Enabled: true,
		Rate:    1e9, Burst: 1 << 30, // quarantine effectively off
		AdmissionHigh: 8, AdmissionLow: 3,
	}
	d := Attach(na, nil, Options{Gov: gov})
	var port *Port
	s.Spawn(ha, "ctl", func(p *sim.Proc) {
		port = d.Open(p)
		if err := port.SetFilter(p, socketFilter(10, 35)); err != nil {
			t.Error(err)
		}
		port.SetQueueLimit(p, 1<<16)
	})
	s.Run(0)

	match := pupTo(1, 2, 1, 35)
	inject := func() {
		span := tr.SpanOrigin(s.Now(), "a")
		d.inputSpanned(match, span)
		s.Run(0)
	}
	// Nobody reads: the backlog climbs one packet per frame until the
	// high watermark trips.
	for i := 0; i < 20; i++ {
		inject()
	}
	if !d.shedding {
		t.Fatal("controller not shedding at backlog 20 >> high watermark 8")
	}
	if port.Len() != gov.AdmissionHigh {
		t.Errorf("queue grew to %d; admission should have capped it at %d",
			port.Len(), gov.AdmissionHigh)
	}
	sheds := sp.Drops[trace.DropAdmission]
	if sheds == 0 {
		t.Fatal("no DropAdmission despite shedding")
	}
	// Draining to one above the low watermark must not reopen intake…
	for port.Len() > gov.AdmissionLow+1 {
		port.queued()[0] = Packet{}
		port.popFront(1)
	}
	inject()
	if !d.shedding {
		t.Fatal("controller reopened above the low watermark (hysteresis broken)")
	}
	// …but reaching it must: the next frame is admitted and enqueued.
	port.popFront(1)
	inject()
	if d.shedding {
		t.Fatal("controller still shedding at the low watermark")
	}
	if port.Len() != gov.AdmissionLow+1 {
		t.Errorf("post-recovery qlen = %d, want %d", port.Len(), gov.AdmissionLow+1)
	}
	gs := GovStats{}
	s.Spawn(ha, "stat", func(p *sim.Proc) { gs = d.GovStats(p) })
	s.Run(0)
	if gs.AdmissionSheds != sp.Drops[trace.DropAdmission] {
		t.Errorf("GovStats sheds %d, taxonomy %d", gs.AdmissionSheds, sp.Drops[trace.DropAdmission])
	}
	if got, want := sp.Created, sp.DeliveredUser+sp.DeliveredKernel+sp.TotalDrops()+sp.Live(); got != want {
		t.Errorf("conservation broken: created=%d accounted=%d", got, want)
	}
}

// TestGovernedRunDeterministic pins that the governed device is as
// deterministic as the ungoverned one: two identical hostile-storm
// runs agree on every statistic the governor produces.
func TestGovernedRunDeterministic(t *testing.T) {
	v1, h1, _ := govScenario(t, Options{Gov: tightGov()}, 40, time.Millisecond)
	v2, h2, _ := govScenario(t, Options{Gov: tightGov()}, 40, time.Millisecond)
	if v1 != v2 {
		t.Errorf("victim stats diverge:\n  %+v\n  %+v", v1, v2)
	}
	if h1 != h2 {
		t.Errorf("hostile stats diverge:\n  %+v\n  %+v", h1, h2)
	}
}

// TestGenerousGovernorIsInvisible checks the acceptance criterion that
// a clean workload under an over-provisioned governor behaves
// identically to an ungoverned one: same virtual end time, same
// delivery counts, no governance events.
func TestGenerousGovernorIsInvisible(t *testing.T) {
	run := func(opt Options) (time.Duration, uint64) {
		r := newRig(t, opt)
		var got uint64
		r.s.Spawn(r.hb, "recv", func(p *sim.Proc) {
			port := r.db.Open(p)
			port.SetFilter(p, socketFilter(10, 35))
			port.SetTimeout(p, 10*time.Millisecond)
			idle := 0
			for idle < 2 {
				if _, err := port.Read(p); err != nil {
					idle++
				} else {
					idle = 0
					got++
				}
			}
		})
		r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
			port := r.da.Open(p)
			p.Sleep(time.Millisecond)
			for i := 0; i < 25; i++ {
				port.Write(p, pupTo(2, 1, 1, 35))
				p.Sleep(500 * time.Microsecond)
			}
		})
		end := r.s.Run(0)
		return end, got
	}
	endOff, gotOff := run(Options{})
	endOn, gotOn := run(Options{Gov: GovConfig{Enabled: true}}) // defaults: generous for 25 paced frames
	if gotOff != 25 || gotOn != 25 {
		t.Fatalf("deliveries: off=%d on=%d, want 25", gotOff, gotOn)
	}
	if endOff != endOn {
		t.Errorf("virtual end time differs: off=%v on=%v — governor touched the clean path", endOff, endOn)
	}
}

// TestGovernedReceivePathAllocationFree re-pins the zero-allocation
// property with the governor enabled: token refill, admission checks
// and backlog accounting must add no garbage to the steady state.
func TestGovernedReceivePathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only run without -race")
	}
	s := sim.New(vtime.DefaultCosts())
	net := ethersim.New(s, ethersim.Ether3Mb)
	ha := s.NewHost("a")
	na := net.Attach(ha, 1)
	d := Attach(na, nil, Options{Gov: GovConfig{Enabled: true}})
	var port *Port
	s.Spawn(ha, "ctl", func(p *sim.Proc) {
		port = d.Open(p)
		if err := port.SetFilter(p, socketFilter(10, 35)); err != nil {
			t.Error(err)
		}
		port.SetQueueLimit(p, 1<<16)
	})
	s.Run(0)
	match := pupTo(1, 2, 1, 35)
	deliver := func() {
		d.inputSpanned(match, 0)
		s.Run(0)
		port.popFront(1)
	}
	for i := 0; i < 64; i++ {
		deliver()
	}
	if a := testing.AllocsPerRun(200, deliver); a != 0 {
		t.Errorf("governed receive path allocates %.1f/packet, want 0", a)
	}
}
