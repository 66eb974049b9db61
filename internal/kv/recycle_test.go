package kv

import (
	"math"
	"reflect"
	"testing"

	"npf/internal/sim"
	"npf/internal/tcp"
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
			var storm *retryStorm
			if tr == TransportTCP {
				storm = watchRetries(svc, wl, victim)
			}
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
			if storm != nil {
				storm.check(t, wl)
			}
		})
	}
}

// retryStorm records, at every TCP retry, the state of the connection the
// retry is sent on: the client host's conn to the shard's current primary.
type retryStorm struct {
	retries   int // retries recorded
	toVictim  int // sent to the downed host
	backedOff int // found the conn's RTO backed off (a timeout since its last new ACK)
	maxQueued int // most messages queued unacknowledged on the conn
	// stall is the longest a conn went without a new ACK between two
	// retries sent on it.
	stall sim.Time
	acked map[*tcp.Conn]ackMark
}

// ackMark is a conn's acknowledged sequence and when a retry first saw it.
type ackMark struct {
	una uint64
	at  sim.Time
}

// watchRetries wraps wl's retry timer so every retry of a pending op is
// recorded before it resends.
func watchRetries(svc *Service, wl *Workload, victim int) *retryStorm {
	st := &retryStorm{acked: map[*tcp.Conn]ackMark{}}
	retry := wl.retryFn
	wl.retryFn = func(arg any) {
		if req := arg.(*pendingReq); wl.pending[req.id] == req {
			to := svc.place.PrimaryHost(req.shard)
			c := req.c.host.ep.(*tcpEndpoint).conns[to]
			backoff, queued, una := connState(c)
			now := svc.Eng.Now()
			if m, ok := st.acked[c]; !ok || m.una != una {
				st.acked[c] = ackMark{una, now}
			} else {
				st.stall = max(st.stall, now-m.at)
			}
			st.retries++
			if to == victim {
				st.toVictim++
			}
			if backoff > 0 {
				st.backedOff++
			}
			st.maxQueued = max(st.maxQueued, queued)
		}
		retry(arg)
	}
	return st
}

// connState reads c's RTO backoff count, its queued messages (every kv
// message fits one segment) and its acknowledged sequence, without an
// export from package tcp.
func connState(c *tcp.Conn) (backoff, queued int, una uint64) {
	v := reflect.ValueOf(c).Elem()
	return int(v.FieldByName("retries").Int()), int(v.FieldByName("q").FieldByName("n").Int()),
		v.FieldByName("sndUna").Uint()
}

// check compares the retry count with its closed form. A pending op
// resends once per RequestTimeout until it completes, so N ops with mean
// latency L retry N*(L/RequestTimeout - 1/2) times (the 1/2 is the
// partial last period, on average). L is set by one MinRTO stall of the
// new primary's streams, not by the downed host or a backed-off RTO: see
// DESIGN S18, "Retries over TCP".
func (st *retryStorm) check(t *testing.T, wl *Workload) {
	t.Helper()
	n := float64(wl.Lat.Count())
	lat := wl.Lat.Mean() * float64(sim.Microsecond)
	want := n * (lat/float64(wl.Cfg.RequestTimeout) - 0.5)
	t.Logf("retry storm: %d retries (closed form %.0f at mean latency %.1f ms), %d to the downed host, %d on a backed-off conn, up to %d messages queued on one conn, %v without a new ACK",
		st.retries, want, lat/float64(sim.Millisecond), st.toVictim, st.backedOff, st.maxQueued, st.stall)
	if st.retries != int(wl.Retries.N) {
		t.Fatalf("recorded %d retries, the workload counted %d", st.retries, wl.Retries.N)
	}
	if d := math.Abs(float64(st.retries)-want) / want; d > 0.01 {
		t.Errorf("%d retries, %.1f%% off the closed form %.0f", st.retries, 100*d, want)
	}
	if st.backedOff*1000 > st.retries {
		t.Errorf("%d of %d retries found their conn in RTO backoff, want under 1 in 1000", st.backedOff, st.retries)
	}
	// The stall is one RTO at backoff 0: the MinRTO floor, not a schedule.
	if rto := tcp.DefaultConfig().MinRTO; st.stall < rto || st.stall >= rto+wl.Cfg.RequestTimeout {
		t.Errorf("longest stall %v, want one MinRTO (%v)", st.stall, rto)
	}
}
