package chaos

import (
	"testing"

	"npf/internal/core"
	"npf/internal/sim"
)

// Every named scenario must pass its invariants and replay byte-identically:
// two runs with the same seed produce the same trace digest (and the same
// headline counters). Running this test under -race additionally checks the
// engine's single-threaded discipline.
func TestScenariosPassAndAreDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := sc.Run(7, Options{})
			if !a.Pass {
				t.Fatalf("scenario failed:\n%s", a.Render())
			}
			b := sc.Run(7, Options{})
			if a.Digest != b.Digest {
				t.Fatalf("nondeterministic: digest %016x then %016x", a.Digest, b.Digest)
			}
			if a.Delivered != b.Delivered || a.NPFs != b.NPFs || a.InjectedDrops != b.InjectedDrops ||
				a.Retransmits != b.Retransmits || a.SimSeconds != b.SimSeconds {
				t.Fatalf("nondeterministic counters:\n%s\nvs\n%s", a.Render(), b.Render())
			}
		})
	}
}

// A different seed must not be able to break the invariants either (a small
// sweep; the scenarios' pass conditions are seed-independent).
func TestScenariosPassAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for _, sc := range Scenarios() {
		for seed := int64(1); seed <= 3; seed++ {
			if r := sc.Run(seed, Options{}); !r.Pass {
				t.Errorf("seed %d:\n%s", seed, r.Render())
			}
		}
	}
}

func TestGEChainStationaryBehaviour(t *testing.T) {
	p := DefaultGE()
	ge := NewGEChain(p, sim.NewEngine(3).Rand().Split())
	const steps = 400_000
	bad, drops := 0, 0
	for i := 0; i < steps; i++ {
		if ge.Drop() {
			drops++
		}
		if ge.Bad() {
			bad++
		}
	}
	badFrac := float64(bad) / steps
	wantBad := p.StationaryBad()
	if badFrac < wantBad*0.8 || badFrac > wantBad*1.2 {
		t.Errorf("bad-state fraction %.4f, stationary %.4f", badFrac, wantBad)
	}
	lossFrac := float64(drops) / steps
	wantLoss := p.MeanLoss()
	if lossFrac < wantLoss*0.8 || lossFrac > wantLoss*1.2 {
		t.Errorf("loss fraction %.4f, want ~%.4f", lossFrac, wantLoss)
	}
}

func TestGEChainTransitions(t *testing.T) {
	// Deterministic corner: always flip state, always drop while bad.
	ge := NewGEChain(GEParams{PGoodBad: 1, PBadGood: 1, LossBad: 1}, sim.NewEngine(1).Rand())
	for i := 0; i < 10; i++ {
		drop := ge.Drop()
		wantBad := i%2 == 0 // starts Good, flips before the loss draw
		if ge.Bad() != wantBad {
			t.Fatalf("step %d: bad=%v, want %v", i, ge.Bad(), wantBad)
		}
		if drop != wantBad {
			t.Fatalf("step %d: drop=%v in state bad=%v", i, drop, ge.Bad())
		}
	}
	// Degenerate chains never leave their state.
	stuck := NewGEChain(GEParams{PGoodBad: 0, PBadGood: 0, LossBad: 1}, sim.NewEngine(1).Rand())
	for i := 0; i < 100; i++ {
		if stuck.Drop() || stuck.Bad() {
			t.Fatal("chain with PGoodBad=0 left the Good state")
		}
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	cfg := core.Config{RetryBackoffBase: 50 * sim.Microsecond, RetryBackoffMax: 400 * sim.Microsecond}
	want := []sim.Time{
		50 * sim.Microsecond, 100 * sim.Microsecond, 200 * sim.Microsecond,
		400 * sim.Microsecond, 400 * sim.Microsecond, 400 * sim.Microsecond,
	}
	for attempt, w := range want {
		if got := cfg.RetryBackoff(attempt); got != w {
			t.Errorf("attempt %d: backoff %v, want %v", attempt, got, w)
		}
	}
	// Legacy shape: base == max is the historical constant delay.
	legacy := core.DefaultConfig()
	for attempt := 0; attempt < 5; attempt++ {
		if got := legacy.RetryBackoff(attempt); got != 100*sim.Microsecond {
			t.Errorf("default config attempt %d: %v, want 100us", attempt, got)
		}
	}
	// Unset base falls back to 100us; unset max means unbounded doubling.
	var zero core.Config
	if zero.RetryBackoff(0) != 100*sim.Microsecond {
		t.Errorf("zero config base = %v", zero.RetryBackoff(0))
	}
	if zero.RetryBackoff(3) != 800*sim.Microsecond {
		t.Errorf("zero config attempt 3 = %v", zero.RetryBackoff(3))
	}
}
