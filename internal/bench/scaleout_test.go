package bench

import (
	"reflect"
	"runtime"
	"testing"

	"npf/internal/fabric"
	"npf/internal/sim"
	"npf/internal/topo"
	"npf/internal/workload"
)

// TestScaleoutDeterminism is the fleet-scale byte-identity pin: the same
// cluster sweep rendered under engine-thread budgets 1, 2, and 8 — the
// budgets only move wall-clock, never the partition structure — must agree
// to the byte on both transports, fingerprints included. The full run is
// the 1,008-host / 101,000-client fleet; -short (the CI race pass) shrinks
// it to the quick fleet with the same shape.
func TestScaleoutDeterminism(t *testing.T) {
	t.Parallel()
	quick, size := testing.Short(), Test
	if quick {
		size = Quick
	}
	var ref *ScaleoutResult
	outs := map[int]string{}
	for _, n := range []int{1, 2, 8} {
		r := runOutput(t, &Scope{Engines: n}, "scaleout", size).(*ScaleoutResult)
		if ref == nil {
			ref = r
		}
		outs[n] = r.Render()
	}
	for _, n := range []int{2, 8} {
		if outs[n] != outs[1] {
			t.Fatalf("sweep output depends on the engine budget:\n--- engines=1 ---\n%s\n--- engines=%d ---\n%s",
				outs[1], n, outs[n])
		}
	}
	wantOps := uint64(202000)
	if quick {
		wantOps = 7200
	}
	for _, res := range ref.Results {
		if res.Ops != wantOps {
			t.Errorf("[%s] completed %d of %d ops", res.Transport, res.Ops, wantOps)
		}
		for _, tn := range res.Tenants {
			if tn.Lost != 0 {
				t.Errorf("[%s] tenant %s lost %d ops", res.Transport, tn.Tenant, tn.Lost)
			}
		}
		if res.BytesPerHost <= 0 || res.BytesPerHost > 1<<20 {
			t.Errorf("[%s] bytes/host = %d, outside the cheap-per-host budget", res.Transport, res.BytesPerHost)
		}
	}
}

// TestGroupStatsAcrossThreads pins the group's counters on the quick
// fleet, both transports: per-partition events, delivered mail and the
// posted-mail matrix are a function of the seed, identical at thread
// budgets 1, 2 and 8. Mailbox high-water marks and the batch count depend
// on how the driver slices batches; they are logged at budget 1 only.
func TestGroupStatsAcrossThreads(t *testing.T) {
	for _, tr := range scaleoutTransports {
		stats := func(threads int) sim.GroupStats {
			fcfg := fabric.DefaultEthernet()
			if tr == topo.TransportUD {
				fcfg = fabric.DefaultInfiniBand()
			}
			g := sim.NewGroup(scaleoutSeed, scaleoutParts, fcfg.Lookahead())
			g.SetThreads(threads)
			s, err := topo.New(g.Engine(0), fabric.NewOnGroup(g, fcfg), ScaleoutConfig(tr, true))
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			return g.Stats()
		}
		ref := stats(1)
		var mail uint64
		for p, ps := range ref.Parts {
			mail += ps.Mail
			t.Logf("[%s] partition %d: %d events, %d mail, posted %v, box high-water %d",
				tr, p, ps.Events, ps.Mail, ps.Posted, ps.BoxHigh)
		}
		t.Logf("[%s] %d batches at one thread", tr, ref.Batches)
		if mail == 0 || ref.Batches == 0 {
			t.Fatalf("[%s] quick fleet delivered %d mail in %d batches", tr, mail, ref.Batches)
		}
		for _, n := range []int{2, 8} {
			got := stats(n)
			for p := range ref.Parts {
				r, g := ref.Parts[p], got.Parts[p]
				if r.Events != g.Events || r.Mail != g.Mail || !reflect.DeepEqual(r.Posted, g.Posted) {
					t.Errorf("[%s] partition %d at %d threads: events %d, mail %d, posted %v; want %d, %d, %v",
						tr, p, n, g.Events, g.Mail, g.Posted, r.Events, r.Mail, r.Posted)
				}
			}
		}
	}
}

// TestScaleoutClientHotPathAllocs gates the per-client steady-state hot
// path at zero allocations: one op draw, one interned key lookup, one
// open-loop arrival draw. At 10^5 logical clients any per-op allocation
// here dominates the heap profile, so this is a hard floor, not a budget.
func TestScaleoutClientHotPathAllocs(t *testing.T) {
	cfg := workload.Config{Keys: 4096, OpenLoop: true}.WithDefaults(4096)
	eng := sim.NewEngine(7)
	src := workload.NewSource(cfg, eng.Rand().Split())
	var keys workload.KeyTable
	keys.Name(cfg.Keys - 1) // warm the intern table end-to-end
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(2000, func() {
		_, k := src.NextOp()
		_ = keys.Name(k)
		now += src.NextArrival(now)
	})
	if allocs != 0 {
		t.Fatalf("per-client steady-state hot path allocates %.1f/op; want 0", allocs)
	}
}

// scaleoutMallocsPerOp bounds the heap objects the quick fleet allocates
// per completed op while it runs (construction and Start excluded): the
// request message, which the server turns into the reply in place, on UD
// the RC packets that cross partitions, and the amortized growth of
// histograms, mailboxes and rings. The retry timer and the service delay
// are argument events with handlers bound once per fleet, so they
// allocate nothing. Measured: 4.09 objects (435 B) on Eth and 7.60
// (913 B) on UD; the budgets leave 10% and 5% headroom, less than one
// object on each. A fresh reply object, a frame per message, or a closure
// per timer or per cross-partition hop each add about one, so either
// transport catches it.
var scaleoutMallocsPerOp = map[topo.Transport]float64{
	topo.TransportEth: 4.5,
	topo.TransportUD:  8,
}

// TestScaleoutRoundTripAllocBound runs the quick fleet on both transports
// at one thread and gates the mallocs per completed op.
func TestScaleoutRoundTripAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are gated in the full pass, not under -short -race")
	}
	for _, tr := range scaleoutTransports {
		fcfg := fabric.DefaultEthernet()
		if tr == topo.TransportUD {
			fcfg = fabric.DefaultInfiniBand()
		}
		g := sim.NewGroup(scaleoutSeed, scaleoutParts, fcfg.Lookahead())
		s, err := topo.New(g.Engine(0), fabric.NewOnGroup(g, fcfg), ScaleoutConfig(tr, true))
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Run()
		runtime.ReadMemStats(&after)
		r := s.Result()
		if r.Ops == 0 {
			t.Fatalf("[%s] quick fleet completed no ops", tr)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(r.Ops)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.Ops)
		t.Logf("[%s] %.2f heap objects, %.0f B per completed op (%d ops)", tr, per, bytes, r.Ops)
		if per > scaleoutMallocsPerOp[tr] {
			t.Errorf("[%s] the quick fleet allocates %.2f objects per op, budget %.1f", tr, per, scaleoutMallocsPerOp[tr])
		}
	}
}
