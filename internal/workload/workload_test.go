package workload

import (
	"testing"

	"npf/internal/sim"
)

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults(4096)
	if c.Tenant != "default" || c.Clients != 8 || c.TargetOps != 2000 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.Keys != 4096 {
		t.Fatalf("Keys default should come from caller: %d", c.Keys)
	}
	if c.GetRatio != 0.9 || c.ZipfS != 1.1 || c.ArrivalRate != 20_000 {
		t.Fatalf("unexpected distribution defaults: %+v", c)
	}
	if c.RequestTimeout != 50*sim.Millisecond {
		t.Fatalf("unexpected timeout default: %v", c.RequestTimeout)
	}
	// Explicit values survive.
	c2 := Config{Tenant: "t", Clients: 3, Keys: 7}.WithDefaults(4096)
	if c2.Tenant != "t" || c2.Clients != 3 || c2.Keys != 7 {
		t.Fatalf("explicit fields overwritten: %+v", c2)
	}
}

func TestSourceDeterminism(t *testing.T) {
	cfg := Config{OpenLoop: true}.WithDefaults(1000)
	draw := func() (gets int, keys []int, gaps []sim.Time) {
		eng := sim.NewEngine(42)
		src := NewSource(cfg, eng.Rand().Split())
		for i := 0; i < 200; i++ {
			g, k := src.NextOp()
			if g {
				gets++
			}
			keys = append(keys, k)
			gaps = append(gaps, src.NextArrival(sim.Time(i)*sim.Microsecond))
		}
		return gets, keys, gaps
	}
	g1, k1, a1 := draw()
	g2, k2, a2 := draw()
	if g1 != g2 {
		t.Fatalf("get count diverged: %d vs %d", g1, g2)
	}
	for i := range k1 {
		if k1[i] != k2[i] || a1[i] != a2[i] {
			t.Fatalf("draw %d diverged: key %d/%d gap %v/%v", i, k1[i], k2[i], a1[i], a2[i])
		}
	}
	// Zipf skew: the head must dominate a 0-indexed rank draw.
	head := 0
	for _, k := range k1 {
		if k < 10 {
			head++
		}
	}
	if head < len(k1)/3 {
		t.Fatalf("Zipf head too cold: %d/%d draws in top-10", head, len(k1))
	}
}

func TestCurveZeroIsConstant(t *testing.T) {
	var c Curve
	for _, at := range []sim.Time{0, sim.Microsecond, sim.Second, 37 * sim.Millisecond} {
		if m := c.Mult(at); m != 1 {
			t.Fatalf("zero curve Mult(%v) = %v, want 1", at, m)
		}
	}
}

func TestCurveDiurnal(t *testing.T) {
	c := Curve{Diurnal: 0.5, Period: sim.Second}
	trough := c.Mult(0)
	peak := c.Mult(sim.Second / 2)
	if trough != 0.75 {
		t.Fatalf("trough = %v, want 0.75", trough)
	}
	if peak != 1.25 {
		t.Fatalf("peak = %v, want 1.25", peak)
	}
	// Periodicity.
	if c.Mult(sim.Second/4) != c.Mult(sim.Second+sim.Second/4) {
		t.Fatal("curve not periodic")
	}
}

func TestCurveFlashCrowd(t *testing.T) {
	c := Curve{FlashAt: sim.Millisecond, FlashFor: sim.Millisecond, FlashMult: 8}
	if m := c.Mult(0); m != 1 {
		t.Fatalf("before flash: %v", m)
	}
	if m := c.Mult(sim.Millisecond + sim.Microsecond); m != 8 {
		t.Fatalf("inside flash: %v", m)
	}
	if m := c.Mult(2 * sim.Millisecond); m != 1 {
		t.Fatalf("after flash: %v", m)
	}
	// Composition with diurnal.
	c.Diurnal, c.Period = 0.5, 4*sim.Millisecond
	in := c.Mult(sim.Millisecond + sim.Microsecond)
	if in <= 6 || in >= 10.001 {
		t.Fatalf("composed multiplier out of range: %v", in)
	}
}

func TestKeyTableInterning(t *testing.T) {
	var kt KeyTable
	if got := kt.Name(3); got != "key-0000003" {
		t.Fatalf("Name(3) = %q", got)
	}
	if len(kt.names) != 4 {
		t.Fatalf("interned %d names, want 4", len(kt.names))
	}
	// Steady state: no growth, no allocation.
	allocs := testing.AllocsPerRun(100, func() {
		if kt.Name(2) != "key-0000002" {
			t.Fatal("wrong name")
		}
	})
	if allocs != 0 {
		t.Fatalf("interned lookup allocates: %v allocs/op", allocs)
	}
}

// TestSourceDrawAllocs is the runtime side of the //npf:noalloc fence on
// NextOp/NextArrival: both draws run per simulated op and must be
// allocation-free at steady state.
func TestSourceDrawAllocs(t *testing.T) {
	cfg := Config{OpenLoop: true}.WithDefaults(1000)
	eng := sim.NewEngine(7)
	src := NewSource(cfg, eng.Rand().Split())
	var sink int
	allocs := testing.AllocsPerRun(200, func() {
		g, k := src.NextOp()
		if g {
			sink += k
		}
		sink += int(src.NextArrival(3 * sim.Microsecond))
	})
	if allocs != 0 {
		t.Fatalf("Source draws allocate: %v allocs/op", allocs)
	}
}
