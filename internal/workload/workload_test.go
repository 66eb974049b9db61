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
		rng := eng.Rand().Split()
		for i := 0; i < 200; i++ {
			g, k := cfg.NextOp(rng)
			if g {
				gets++
			}
			keys = append(keys, k)
			gaps = append(gaps, cfg.NextArrival(rng))
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
// Config.NextOp/NextArrival: a client draws an op per simulated op, and a
// kv open-loop client an arrival gap per op, so both must be
// allocation-free at steady state.
func TestSourceDrawAllocs(t *testing.T) {
	cfg := Config{OpenLoop: true}.WithDefaults(1000)
	eng := sim.NewEngine(7)
	rng := eng.Rand().Split()
	var sink int
	allocs := testing.AllocsPerRun(200, func() {
		g, k := cfg.NextOp(rng)
		if g {
			sink += k
		}
		sink += int(cfg.NextArrival(rng))
	})
	if allocs != 0 {
		t.Fatalf("Config draws allocate: %v allocs/op", allocs)
	}
}
