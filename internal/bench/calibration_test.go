package bench

import (
	"math"
	"testing"

	"npf/internal/core"
	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/sim"
)

// closedForm is one Figure 3 column as a sum of calibrated constants.
type closedForm struct {
	col   string   // the column, as TestFig3ClosedForm names it
	terms string   // the constants the formula adds, by name
	want  sim.Time // the formula over today's defaults
	cal   sim.Time // the value the constants were fitted to produce
	paper string   // the paper number the column reproduces
}

// fig3ClosedForms states every Figure 3 column for a message of the given
// pages. Fig 3 runs with firmware jitter off, so each is exact.
func fig3ClosedForms(size string, pages int) []closedForm {
	fw, io, drv, mm := nic.DefaultFirmware(), iommu.DefaultCosts(), core.DefaultConfig(), mem.DefaultCosts()
	n := sim.Time(pages)
	trigger := fw.IntLatency + fw.FirmwareFault
	driver := drv.DispatchCost + n*drv.PerPageLookup + mm.MinorFault + n*mm.PerPageAlloc
	update := io.MapSync + n*io.MapPerPage
	resume := fw.FirmwareResume
	cal := map[string][4]sim.Time{ // trigger, driver, updatePT, resume
		"4KB": {133 * sim.Microsecond, 5100 * sim.Nanosecond, 35035 * sim.Nanosecond, 40 * sim.Microsecond},
		"4MB": {133 * sim.Microsecond, 107400 * sim.Nanosecond, 70840 * sim.Nanosecond, 40 * sim.Microsecond},
	}[size]
	return []closedForm{
		{"trigger", "nic.DefaultFirmware IntLatency + FirmwareFault", trigger, cal[0],
			"Fig 3a trigger (i)→(ii); with resume, ~90% of the 4 KB NPF's ≈220 µs"},
		{"driver", "core DispatchCost + pages×PerPageLookup + mem MinorFault + pages×PerPageAlloc", driver, cal[1],
			"Fig 3a driver (ii)→(iii), the part that grows to the 4 MB NPF's ≈350 µs"},
		{"updatePT", "iommu MapSync + pages×MapPerPage", update, cal[2],
			"Fig 3a updatePT (iii)→(iv)"},
		{"resume", "nic.DefaultFirmware FirmwareResume", resume, cal[3],
			"Fig 3a resume (iv)→(v)"},
		{"total", "the four columns", trigger + driver + update + resume, cal[0] + cal[1] + cal[2] + cal[3],
			"Fig 3a total, paper 4 KB ≈220 µs, 4 MB ≈350 µs"},
	}
}

// fig3bClosedForms states the two Figure 3b invalidation costs.
func fig3bClosedForms() []closedForm {
	io, drv := iommu.DefaultCosts(), core.DefaultConfig()
	return []closedForm{
		{"mapped", "core CheckCost + UpdateCost + iommu InvalidateSync + InvalidatePerPage",
			drv.CheckCost + drv.UpdateCost + io.InvalidateSync + io.InvalidatePerPage, 48040 * sim.Nanosecond,
			"Fig 3b mapped page, paper ≈55–60 µs"},
		{"unmapped", "core CheckCost", drv.CheckCost, 9 * sim.Microsecond,
			"Fig 3b unmapped fast path, paper ≈10 µs"},
	}
}

// ns rounds a µs mean to the nanosecond.
func ns(us float64) sim.Time { return sim.Time(math.Round(us * 1000)) }

// TestFig3ClosedForm checks every Figure 3 column against its formula over
// the calibrated constants: each formula against the value it was fitted
// to, then the simulated mean against the formula, to the nanosecond, at
// the default seed and two others. A fault-path constant edited without
// recalibrating, or a change to how the model charges one, fails here
// naming the constant and the paper number.
func TestFig3ClosedForm(t *testing.T) {
	type group struct {
		where string
		forms []closedForm
		got   func(*Fig3Result) []float64 // the simulated columns, µs
	}
	var groups []group
	for _, size := range fig3Sizes {
		name := size.name
		groups = append(groups, group{"fig3a " + name, fig3ClosedForms(name, size.bytes/mem.PageSize),
			func(r *Fig3Result) []float64 {
				b := r.NPF[name]
				return []float64{b.Trigger, b.Driver, b.Update, b.Resume, b.Total}
			}})
	}
	groups = append(groups, group{"fig3b", fig3bClosedForms(),
		func(r *Fig3Result) []float64 { return []float64{r.InvalidationMapped, r.InvalidationFast} }})

	for _, g := range groups {
		for _, c := range g.forms {
			if c.want != c.cal {
				t.Errorf("%s %s: %s = %v, calibrated to %v (%s); a constant moved without recalibrating",
					g.where, c.col, c.terms, c.want, c.cal, c.paper)
			}
		}
	}
	for _, seed := range []int64{fig3DefaultSeed, 3, 13} {
		r := RunFig3Opts(nil, Fig3Opts{Trials: 16, Seed: seed})
		for _, g := range groups {
			for i, v := range g.got(r) {
				if c := g.forms[i]; ns(v) != c.want {
					t.Errorf("seed %d %s %s: simulated %.3f µs, closed form %s = %v (%s)",
						seed, g.where, c.col, v, c.terms, c.want, c.paper)
				}
			}
		}
	}
}

// TestTable4CollapsesAtZeroSigma runs Table 4's trial loop at its seed with
// the firmware jitter off: with no random term left, every NPF costs the
// same, so p50, p99 and max all equal the Figure 3 total.
func TestTable4CollapsesAtZeroSigma(t *testing.T) {
	fig3 := RunFig3Opts(nil, Fig3Opts{Trials: 16})
	for _, size := range fig3Sizes {
		e := NewIBEnv(IBOpts{Seed: 11})
		MinorNPFs(e, size.bytes, 64)
		h := &e.DrvB.Hist.Total
		want := ns(fig3.NPF[size.name].Total)
		if h.Count() != 64 {
			t.Fatalf("%s: %d NPFs, want 64", size.name, h.Count())
		}
		for _, p := range []struct {
			name string
			v    float64
		}{{"min", h.Min()}, {"p50", h.Percentile(50)}, {"p99", h.Percentile(99)}, {"max", h.Max()}} {
			if ns(p.v) != want {
				t.Errorf("%s at sigma 0: %s = %.3f µs, want the fig3 total %v", size.name, p.name, p.v, want)
			}
		}
	}
}
