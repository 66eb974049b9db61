package bench

import (
	"bytes"
	"math"
	"testing"

	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/trace"
)

// runTracedNPFs drives the Figure 3a scenario (warm sender, cold receive
// buffers, minor rNPFs on the responder) on a traced IB env.
func runTracedNPFs(seed int64, trials int, traced, jitter bool) *IBEnv {
	e := NewIBEnv(IBOpts{Seed: seed, Trace: traced, Jitter: jitter})
	const pages, window = 1, 8
	Warm(e.QPA, 0, pages*2)
	done := 0
	var runTrial func()
	runTrial = func() {
		if done >= trials {
			e.Eng.Stop()
			return
		}
		base := mem.VAddr(done%window*pages) * mem.PageSize
		e.QPB.PostRecv(rc.RecvWQE{ID: int64(done), Addr: base, Len: 4096})
		e.QPA.PostSend(rc.SendWQE{ID: int64(done), Laddr: 0, Len: 4096})
	}
	e.QPB.OnRecv = func(rc.RecvCompletion) {
		base := mem.PageNum(done % window * pages)
		e.ASB.DiscardPages(base, pages)
		done++
		runTrial()
	}
	runTrial()
	e.Eng.Run()
	return e
}

// TestTraceDeterminism is the subsystem's headline property: the same
// seeded scenario run twice produces byte-identical Chrome JSON and metric
// snapshots.
func TestTraceDeterminism(t *testing.T) {
	var exports [2][]byte
	var snaps [2]string
	for i := range exports {
		e := runTracedNPFs(7, 30, true, true)
		var buf bytes.Buffer
		if err := e.Tracer.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		exports[i] = buf.Bytes()
		snaps[i] = e.Tracer.MetricsSnapshot()
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Error("Chrome trace JSON differs between identical seeded runs")
	}
	if snaps[0] != snaps[1] {
		t.Errorf("metric snapshots differ:\n--- run 1\n%s\n--- run 2\n%s", snaps[0], snaps[1])
	}
	if len(exports[0]) == 0 || snaps[0] == "" {
		t.Fatal("empty export")
	}
}

// TestTracingDoesNotPerturb checks the RNG-order-preservation discipline:
// enabling tracing must not change what the simulation itself does, even
// with firmware jitter drawing from the engine RNG on every fault.
func TestTracingDoesNotPerturb(t *testing.T) {
	plain := runTracedNPFs(11, 30, false, true)
	traced := runTracedNPFs(11, 30, true, true)
	if plain.Tracer != nil {
		t.Fatal("untraced env has a tracer")
	}
	ph, th := &plain.DrvB.Hist, &traced.DrvB.Hist
	if ph.Total.Count() != th.Total.Count() {
		t.Fatalf("fault counts differ: %d vs %d", ph.Total.Count(), th.Total.Count())
	}
	if ph.Total.Mean() != th.Total.Mean() || ph.Total.Max() != th.Total.Max() {
		t.Errorf("NPF totals diverge with tracing on: mean %v vs %v, max %v vs %v",
			ph.Total.Mean(), th.Total.Mean(), ph.Total.Max(), th.Total.Max())
	}
	if plain.Eng.Now() != traced.Eng.Now() {
		t.Errorf("virtual end times diverge: %v vs %v", plain.Eng.Now(), traced.Eng.Now())
	}
}

// TestFig3SpanConsistency cross-checks the two independent observers of the
// same faults: the stage statistics of the fault records
// (trace.FaultStageBreakdown) must agree with the driver's own Breakdown
// histograms, and reproduce the paper's Figure 3a calibration (≈220µs
// total, ~90% hardware at 4KB).
func TestFig3SpanConsistency(t *testing.T) {
	e := runTracedNPFs(7, 50, true, false)
	stages := trace.FaultStageBreakdown(e.Tracer.FaultRecords())
	h := &e.DrvB.Hist

	if got := stages["total"].Count(); got != h.Total.Count() {
		t.Fatalf("fault records %d != driver faults %d", got, h.Total.Count())
	}
	close := func(name string, recUs, histUs float64) {
		if math.Abs(recUs-histUs) > 1.0 {
			t.Errorf("%s: fault records %.2fµs vs driver histogram %.2fµs", name, recUs, histUs)
		}
	}
	close("fault-report/trigger", stages["fault-report"].Mean(), h.Trigger.Mean())
	close("driver", stages["driver"].Mean(), h.DriverSW.Mean())
	close("update", stages["update"].Mean(), h.UpdateHW.Mean())
	close("resume", stages["resume"].Mean(), h.Resume.Mean())
	close("total", stages["total"].Mean(), h.Total.Mean())

	total := stages["total"].Mean()
	if total < 180 || total > 260 {
		t.Errorf("4KB NPF total %.1fµs outside paper calibration [180, 260]", total)
	}
	share := trace.HardwareShare(stages)
	if share < 0.85 || share > 0.99 {
		t.Errorf("hardware share %.3f outside [0.85, 0.99] (paper: ~90%%)", share)
	}
}

// TestEnvEngineGuard verifies the shared experiment envs install the
// runaway-event guard.
func TestEnvEngineGuard(t *testing.T) {
	if e := NewIBEnv(IBOpts{Seed: 1}); e.Eng.MaxEvents != MaxEngineEvents {
		t.Errorf("IB env MaxEvents = %d, want %d", e.Eng.MaxEvents, MaxEngineEvents)
	}
	if e := NewEthEnv(EthOpts{Seed: 1}); e.Eng.MaxEvents != MaxEngineEvents {
		t.Errorf("Eth env MaxEvents = %d, want %d", e.Eng.MaxEvents, MaxEngineEvents)
	}
}
