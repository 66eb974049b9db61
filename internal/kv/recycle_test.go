package kv

import (
	"testing"

	"npf/internal/sim"
)

// TestKVWarmOpsAllocBound: on a prepopulated, warm TCP deployment (3
// servers x 4 shards x 2 replicas, ODP, no reclaim waves) a batch of ops
// allocates at most 0.05 objects per completed op. Each request comes
// back as its reply and each replicated set as its ack, and the per-op
// timers are bound argument events, so what is left is mostly the
// heartbeats, amortized over the batch.
func TestKVWarmOpsAllocBound(t *testing.T) {
	eng, svc := newTestService(t, 1, Config{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg: RegODP, ExpectedKeys: 1024,
	})
	wl := svc.NewWorkload(WorkloadConfig{
		TargetOps: 1 << 30, Keys: 1024, ZipfS: 1.1, GetRatio: 0.9,
		FrontCacheEntries: 32, Prepopulate: true,
	})
	wl.Start()
	eng.RunUntil(200 * sim.Millisecond)
	batch := func() { eng.RunUntil(eng.Now() + 10*sim.Millisecond) }
	before := wl.Completed()
	const runs = 20
	allocs := testing.AllocsPerRun(runs, batch)
	// AllocsPerRun runs the batch once more to warm up.
	ops := wl.Completed() - before
	perBatch := float64(ops) / (runs + 1)
	perOp := allocs / perBatch
	t.Logf("%.2f objects per batch of %.0f ops: %.4f per op", allocs, perBatch, perOp)
	if perBatch < 1000 {
		t.Fatalf("%.0f ops per 10 ms batch, want at least 1000", perBatch)
	}
	if perOp > 0.05 {
		t.Fatalf("a warm op allocates %.4f objects, want at most 0.05", perOp)
	}
	if wl.Retries.N != 0 || svc.Redirects.N != 0 || svc.ReplTimeouts.N != 0 {
		t.Fatalf("warm run retried %d ops, redirected %d and timed out %d replications",
			wl.Retries.N, svc.Redirects.N, svc.ReplTimeouts.N)
	}
}

// TestRetriesAndRedirects downs a primary for longer than RequestTimeout
// while open-loop traffic runs, on both transports: clients retry, a
// backup is promoted, and requests queued toward the old primary reach it
// after it heals and come back as redirects. Every op must still complete
// exactly once and the replicas must converge. Requests, replies,
// replicated sets and acks all recycle through these paths, so a message
// reused while another host still holds it shows up here.
func TestRetriesAndRedirects(t *testing.T) {
	for _, tr := range []Transport{TransportTCP, TransportRC} {
		t.Run(tr.String(), func(t *testing.T) {
			eng, svc := newTestService(t, 11, Config{
				Transport:      tr,
				HeartbeatEvery: 2 * sim.Millisecond,
				FailoverAfter:  8 * sim.Millisecond,
				ReplTimeout:    5 * sim.Millisecond,
			})
			victim := svc.Placement().PrimaryHost(0)
			wl := svc.NewWorkload(WorkloadConfig{
				TargetOps: 3000, Prepopulate: true,
				OpenLoop: true, ArrivalRate: 10_000, Clients: 4,
				RequestTimeout: 10 * sim.Millisecond,
			})
			wl.OnDone = func() { eng.After(300*sim.Millisecond, svc.Stop) }
			wl.Start()
			eng.After(20*sim.Millisecond, func() { svc.SetHostDown(victim, true) })
			eng.After(80*sim.Millisecond, func() { svc.SetHostDown(victim, false) })
			eng.Run()

			if wl.Retries.N == 0 || svc.Redirects.N == 0 || svc.Failovers.N == 0 {
				t.Fatalf("retries=%d redirects=%d failovers=%d, want all > 0",
					wl.Retries.N, svc.Redirects.N, svc.Failovers.N)
			}
			n := wl.Cfg.TargetOps
			if wl.issued != n || wl.Completed() != n || wl.Lat.Count() != n ||
				int(wl.Gets.N+wl.Sets.N) != n || len(wl.pending) != 0 {
				t.Fatalf("issued %d, completed %d, %d latencies, %d gets+sets, %d pending; want %d ops each completed once",
					wl.issued, wl.Completed(), wl.Lat.Count(), wl.Gets.N+wl.Sets.N, len(wl.pending), n)
			}
			if bad := svc.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("consistency violations: %v", bad)
			}
			t.Logf("done=%v retries=%d redirects=%d failovers=%d repl_timeouts=%d resyncs=%d", wl.DoneAt,
				wl.Retries.N, svc.Redirects.N, svc.Failovers.N, svc.ReplTimeouts.N, svc.Resyncs.N)
		})
	}
}
