package bench

import (
	"strings"
	"testing"
)

// These tests run every entry of Experiments at its Test sizing and assert
// the paper's qualitative results — the shapes EXPERIMENTS.md documents —
// so the reproduction cannot silently regress. Each run's output is also
// pinned in the output manifest (outputs_test.go).

func TestFig3Shapes(t *testing.T) {
	r := runOutput(t, &Scope{}, "fig3", Test).(*Fig3Result)
	k4, m4 := r.NPF["4KB"], r.NPF["4MB"]
	if k4.Total < 160 || k4.Total > 280 {
		t.Errorf("4KB NPF = %.1f µs, want ≈220", k4.Total)
	}
	if m4.Total < 280 || m4.Total > 450 {
		t.Errorf("4MB NPF = %.1f µs, want ≈350", m4.Total)
	}
	// Hardware dominates (~90% in the paper; ≥70% here).
	hwShare := (k4.Trigger + k4.Resume) / k4.Total
	if hwShare < 0.7 {
		t.Errorf("hardware share = %.2f", hwShare)
	}
	if r.InvalidationMapped < 30 || r.InvalidationMapped > 90 {
		t.Errorf("mapped invalidation = %.1f µs", r.InvalidationMapped)
	}
	if r.InvalidationFast >= r.InvalidationMapped/2 {
		t.Errorf("fast path %.1f not well below mapped %.1f",
			r.InvalidationFast, r.InvalidationMapped)
	}
	if !strings.Contains(r.Render(), "Figure 3") {
		t.Error("render broken")
	}
}

func TestTable4Shapes(t *testing.T) {
	r := runOutput(t, &Scope{}, "table4", Test).(*Table4Result)
	for _, size := range []string{"4KB", "4MB"} {
		row := r.Rows[size]
		if !(row.P50 < row.P95 && row.P95 < row.P99 && row.P99 < row.Max) {
			t.Errorf("%s percentiles not increasing: %+v", size, row)
		}
		if row.Max < 1.5*row.P50 {
			t.Errorf("%s tail too light: p50=%.0f max=%.0f", size, row.P50, row.Max)
		}
	}
	if r.Rows["4MB"].P50 <= r.Rows["4KB"].P50 {
		t.Error("4MB should be slower than 4KB")
	}
}

func TestFig4aShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped in -short mode")
	}
	t.Parallel()
	r := runOutput(t, &Scope{}, "fig4a", Test).(*Fig4aResult)
	early := func(name string) float64 {
		total := 0.0
		for _, p := range r.Series[name] {
			if p[0] < 5 {
				total += p[1]
			}
		}
		return total
	}
	pin, backup, drop := early("pin"), early("backup"), early("drop")
	if backup < pin/2 {
		t.Errorf("backup early throughput %.1f far below pin %.1f", backup, pin)
	}
	if drop > backup/5 {
		t.Errorf("drop early throughput %.1f not collapsed vs backup %.1f", drop, backup)
	}
}

func TestFig4bShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped in -short mode")
	}
	r := runOutput(t, &Scope{}, "fig4b", Test).(*Fig4bResult)
	d16, d256 := r.Seconds["drop"][0], r.Seconds["drop"][1]
	b16, b256 := r.Seconds["backup"][0], r.Seconds["backup"][1]
	if d16 > 0 && d256 > 0 && d256 < d16 {
		t.Errorf("drop should worsen with ring size: %v vs %v", d16, d256)
	}
	if b16 < 0 || b256 < 0 {
		t.Fatal("backup failed")
	}
	if d16 > 0 && d16 < 5*b16 {
		t.Errorf("drop %v should be far slower than backup %v", d16, b16)
	}
}

func TestTable5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped in -short mode")
	}
	t.Parallel()
	r := runOutput(t, &Scope{}, "table5", Test).(*Table5Result)
	npf := r.KTPS["NPF"]
	pin := r.KTPS["pinning"]
	for n := 0; n < 4; n++ {
		if npf[n] <= 0 {
			t.Fatalf("NPF with %d instances failed", n+1)
		}
	}
	// Near-linear scaling.
	if npf[3] < 3*npf[0] {
		t.Errorf("NPF scaling: %v", npf)
	}
	if pin[0] <= 0 || pin[1] <= 0 {
		t.Errorf("pinning should run 1-2 instances: %v", pin)
	}
	if pin[2] >= 0 || pin[3] >= 0 {
		t.Errorf("pinning must be N/A at 3-4 instances: %v", pin)
	}
}

func TestFig8aShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped in -short mode")
	}
	t.Parallel()
	r := runOutput(t, &Scope{}, "fig8a", Test).(*Fig8aResult)
	if r.NPF[0] <= 0 {
		t.Fatal("NPF should run at the smallest memory point")
	}
	if r.Pin[0] >= 0 || r.Pin[1] >= 0 {
		t.Errorf("pin must fail below 5GB: %v", r.Pin[:2])
	}
	// NPF ahead mid-range, converged at the top.
	mid := 2 // 5.0 GB
	if r.NPF[mid] < 1.3*r.Pin[mid] {
		t.Errorf("NPF %.2f not well ahead of pin %.2f at 5GB", r.NPF[mid], r.Pin[mid])
	}
	last := len(r.MemGB) - 1
	ratio := r.NPF[last] / r.Pin[last]
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("NPF and pin should converge at 8GB: %.2f vs %.2f", r.NPF[last], r.Pin[last])
	}
}

func TestFig8bShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped in -short mode")
	}
	t.Parallel()
	r := runOutput(t, &Scope{}, "fig8b", Test).(*Fig8bResult)
	last := len(r.Sessions) - 1
	if r.Pin[0] < 0.99 || r.Pin[last] < 0.99 {
		t.Errorf("pin not flat at 1GB: %v", r.Pin)
	}
	if r.NPF512KB[0] > 0.2 {
		t.Errorf("npf-512KB with 1 session = %.2f, want tiny", r.NPF512KB[0])
	}
	if r.NPF512KB[last] < 0.8 {
		t.Errorf("npf-512KB at 80 sessions = %.2f, want near 1GB", r.NPF512KB[last])
	}
	if r.NPF64KB[last] > r.NPF512KB[last]/3 {
		t.Errorf("npf-64KB %.2f should stay far below npf-512KB %.2f",
			r.NPF64KB[last], r.NPF512KB[last])
	}
}

func TestFig9Shapes(t *testing.T) {
	r := runOutput(t, &Scope{}, "fig9", Test).(*Fig9Result)
	for _, bench := range r.Benchmarks {
		last := len(r.SizesKB) - 1
		cp := r.Seconds[bench]["copy"]
		pin := r.Seconds[bench]["pin"]
		npf := r.Seconds[bench]["npf"]
		if cp[last] <= pin[last] {
			t.Errorf("%s: copy %.4f should lose to pin %.4f at 128KB", bench, cp[last], pin[last])
		}
		ratio := npf[last] / pin[last]
		if ratio > 1.2 || ratio < 0.8 {
			t.Errorf("%s: npf/pin = %.2f, want ≈1", bench, ratio)
		}
		// copy/pin grows with message size.
		if cp[last]/pin[last] <= cp[0]/pin[0]*0.95 {
			t.Errorf("%s: copy/pin should grow with size: %.2f -> %.2f",
				bench, cp[0]/pin[0], cp[last]/pin[last])
		}
	}
}

func TestTable6Shapes(t *testing.T) {
	r := runOutput(t, &Scope{}, "table6", Test).(*Table6Result)
	if r.MBps["npf"] < 0.9*r.MBps["pin"] || r.MBps["npf"] > 1.1*r.MBps["pin"] {
		t.Errorf("npf %.0f should match pin %.0f", r.MBps["npf"], r.MBps["pin"])
	}
	if r.MBps["copy"] > 0.85*r.MBps["pin"] {
		t.Errorf("copy %.0f should clearly lose to pin %.0f", r.MBps["copy"], r.MBps["pin"])
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped in -short mode")
	}
	r := runOutput(t, &Scope{}, "fig10", Test).(*Fig10Result)
	for i := range r.Exps {
		if r.MinorBrng[i] < r.MinorDrop[i] {
			t.Errorf("freq 2^-%d: backup %.2f below drop %.2f",
				r.Exps[i], r.MinorBrng[i], r.MinorDrop[i])
		}
		// Drop: fault type irrelevant (RTO dominates).
		if d := r.MinorDrop[i] - r.MajorDrop[i]; d > 0.5 || d < -0.5 {
			t.Errorf("freq 2^-%d: drop minor %.2f vs major %.2f should match",
				r.Exps[i], r.MinorDrop[i], r.MajorDrop[i])
		}
	}
	// Backup degrades with major faults at high frequency.
	if r.MajorBrng[0] >= r.MinorBrng[0] {
		t.Errorf("major brng %.2f should trail minor brng %.2f",
			r.MajorBrng[0], r.MinorBrng[0])
	}
	// IB throughput increases as faults get rarer, reaching the optimum.
	if r.IBMinor[0] >= r.IBMinor[len(r.IBMinor)-1] {
		t.Errorf("IB curve not rising: %v", r.IBMinor)
	}
	if r.IBMinor[len(r.IBMinor)-1] < 0.95*r.IBOptimum {
		t.Errorf("IB should reach optimum at rare faults: %.1f vs %.1f",
			r.IBMinor[len(r.IBMinor)-1], r.IBOptimum)
	}
}

func TestAblateShapes(t *testing.T) {
	r := runOutput(t, &Scope{}, "ablate", Test).(*AblateResult)
	if r.PagewiseMs < 5*r.BatchedMs {
		t.Errorf("page-wise %.2fms should dwarf batched %.2fms", r.PagewiseMs, r.BatchedMs)
	}
	if r.PagewiseEvents <= r.BatchedEvents {
		t.Error("page-wise must take more fault events")
	}
	// Small pin-down caches thrash.
	if r.PinMs[0] < 1.3*r.PinMs[len(r.PinMs)-1] {
		t.Errorf("1MB cache %.2fms should thrash vs 64MB %.2fms",
			r.PinMs[0], r.PinMs[len(r.PinMs)-1])
	}
	// Long RNR timeouts hurt.
	if r.RNRMs[len(r.RNRMs)-1] < 2*r.RNRMs[1] {
		t.Errorf("5ms RNR timeout %.3f should hurt vs 280µs %.3f",
			r.RNRMs[len(r.RNRMs)-1], r.RNRMs[1])
	}
	// The in-flight bitmap suppresses duplicate reports by an order of
	// magnitude.
	if r.BitmapOffReports < 10*r.BitmapOnReports {
		t.Errorf("bitmap suppression: on=%.0f off=%.0f", r.BitmapOnReports, r.BitmapOffReports)
	}
	// Guest-table protection is nearly free at stream rates.
	if r.NestedGbps < 0.97*r.FlatGbps {
		t.Errorf("nested translation too costly: %.2f vs %.2f", r.NestedGbps, r.FlatGbps)
	}
	// The read-RNR extension wastes an order of magnitude fewer chunks.
	if r.ReadExtDrops*5 > r.ReadBaseDrops {
		t.Errorf("read-RNR waste: ext=%.0f base=%.0f", r.ReadExtDrops, r.ReadBaseDrops)
	}
}

func TestLOC(t *testing.T) {
	r, err := RunLOC("../..")
	if err != nil {
		t.Fatal(err)
	}
	if r.PinDownCacheLOC < 30 {
		t.Errorf("pin-down cache LOC = %d, suspiciously small", r.PinDownCacheLOC)
	}
	if r.ODPCallSites < 1 {
		t.Error("no ODP call sites found")
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped in -short mode")
	}
	t.Parallel()
	r := runOutput(t, &Scope{}, "fig7", Test).(*Fig7Result)
	// Compare combined steady-state throughput after the flip.
	tail := func(mode string) float64 {
		pair := r.Series[mode]
		n := len(pair[0])
		if len(pair[1]) < n {
			n = len(pair[1])
		}
		total, cnt := 0.0, 0
		for i := n - 10; i < n; i++ {
			if i < 0 {
				continue
			}
			total += pair[0][i][1] + pair[1][i][1]
			cnt++
		}
		return total / float64(cnt)
	}
	npf, pin := tail("npf"), tail("pin")
	if npf < 1.15*pin {
		t.Errorf("combined NPF %.1f should clearly beat pin %.1f after the flip", npf, pin)
	}
	// Under NPF both instances converge to roughly equal rates.
	pair := r.Series["npf"]
	n := len(pair[0]) - 1
	g, s := pair[0][n][1], pair[1][n][1]
	if g < 0.8*s || s < 0.8*g {
		t.Errorf("NPF instances did not converge: %.1f vs %.1f", g, s)
	}
}
