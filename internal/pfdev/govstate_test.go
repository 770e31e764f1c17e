package pfdev

import (
	"testing"
	"time"
)

// TestGovernorStateBoundaries drives the shared governor types with
// explicit clock readings, no device and no clock: the boundaries both
// the simulated and the live device inherit.
func TestGovernorStateBoundaries(t *testing.T) {
	const ms = time.Millisecond
	base := GovConfig{
		Enabled:        true,
		QuarantineBase: 10 * ms,
		QuarantineMax:  30 * ms,
		QuarantineCool: 50 * ms,
	}
	withRate := func(rate float64, burst int) GovConfig {
		c := base
		c.Rate, c.Burst = rate, burst
		return c
	}
	type step struct {
		now     time.Duration
		admit   bool
		penalty time.Duration // quarPenalty after the step
		tokens  float64       // govTokens after the step
	}
	cases := []struct {
		name  string
		cfg   GovConfig
		bound int
		steps []step
	}{
		{
			// Rate 0 keeps the bucket empty, so every reach out of the
			// window is an offence.
			name: "re-offence exactly QuarantineCool after the window doubles",
			cfg:  base, bound: 10,
			steps: []step{
				{now: 0, penalty: 10 * ms},
				{now: 10*ms + 50*ms, penalty: 20 * ms},
			},
		},
		{
			name: "re-offence 1ns past QuarantineCool resets to base",
			cfg:  base, bound: 10,
			steps: []step{
				{now: 0, penalty: 10 * ms},
				{now: 10*ms + 50*ms + 1, penalty: 10 * ms},
			},
		},
		{
			name: "penalty clamps at QuarantineMax",
			cfg:  base, bound: 10,
			steps: []step{
				{now: 0, penalty: 10 * ms},       // window [0, 10ms)
				{now: 5 * ms, penalty: 10 * ms},  // inside the window: skipped, no new offence
				{now: 10 * ms, penalty: 20 * ms}, // window [10ms, 30ms)
				{now: 30 * ms, penalty: 30 * ms}, // 40ms clamped
				{now: 60 * ms, penalty: 30 * ms},
			},
		},
		{
			name: "refill never lifts the bucket above Burst",
			cfg:  withRate(512, 50), bound: 0,
			steps: []step{
				{now: 15625 * time.Microsecond, admit: true, tokens: 8}, // 512/s × 1/64 s
				{now: 125 * ms, admit: true, tokens: 50},                // 8 + 56 clamped
				{now: time.Second, admit: true, tokens: 50},
				{now: time.Second, admit: true, tokens: 50},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := PortGov{govBound: tc.bound}
			for i, s := range tc.steps {
				if got := g.Admit(s.now, &tc.cfg); got != s.admit {
					t.Fatalf("step %d (now %v): admit = %v, want %v", i, s.now, got, s.admit)
				}
				if g.quarPenalty != s.penalty || g.govTokens != s.tokens {
					t.Fatalf("step %d (now %v): penalty %v tokens %v, want %v and %v",
						i, s.now, g.quarPenalty, g.govTokens, s.penalty, s.tokens)
				}
			}
		})
	}

	t.Run("admission hysteresis starts at AdmissionHigh and stops at AdmissionLow", func(t *testing.T) {
		cfg := GovConfig{Enabled: true, AdmissionHigh: 8, AdmissionLow: 3}
		var a Admission
		sheds := uint64(0)
		for i, s := range []struct {
			backlog int
			admit   bool
		}{
			{7, true}, {8, false}, {9, false}, {4, false}, {3, true}, {4, true}, {7, true}, {8, false},
		} {
			if got := a.Admit(s.backlog, &cfg); got != s.admit {
				t.Fatalf("step %d (backlog %d): admit = %v, want %v", i, s.backlog, got, s.admit)
			}
			if !s.admit {
				sheds++
			}
		}
		if a.admissionSheds != sheds {
			t.Errorf("sheds counted %d, want %d", a.admissionSheds, sheds)
		}
	})
}
