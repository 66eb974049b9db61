package bench

import (
	"fmt"
	"strings"

	"npf/internal/artifact"
	"npf/internal/fabric"
	"npf/internal/kv"
	"npf/internal/sim"
	"npf/internal/trace"
)

// KVResult is the distributed-KV registration ablation: the same deployment
// and the same Zipf-skewed workload run under each registration policy while
// periodic reclaim waves squeeze the per-shard cgroups. ODP arenas bend
// (evictions, refaults, NPFs on the rings) and recover; the pin-down cache
// pays churn on its capacity edge; full pinning is immune to reclaim but
// holds every byte forever. One row per policy.
type KVResult struct {
	Policies []kv.RegPolicy
	Ops      []int
	P50Us    []float64
	P99Us    []float64
	P999Us   []float64
	NPFs     []uint64
	Evicts   []uint64 // cgroup evictions across shard groups
	Majors   []uint64 // host major faults (refault cost of the squeezes)
	Shed     []uint64 // sets shed at arena exhaustion
	Failover []uint64 // spurious failovers (should stay 0: no link faults)
}

// kvSweepWaves is the reclaim schedule every job shares: squeeze all shard
// groups to the floor, hold, release. The floor is far below a shard's
// working set, so each wave forces real evictions on reclaimable arenas.
const (
	kvWaves      = 4
	kvWaveStart  = 5 * sim.Millisecond
	kvWavePeriod = 15 * sim.Millisecond
	kvWaveHold   = 5 * sim.Millisecond
	kvWaveFloor  = 64 << 10
)

// RunKV runs the tail-latency ablation. Each policy is an independent,
// seed-isolated job through the sweep runner; each writes only its own row,
// so output is byte-identical for any Workers fan-out.
func RunKV(s *Scope, quick bool) *KVResult {
	ops := 4000
	if quick {
		ops = 1200
	}
	policies := []kv.RegPolicy{kv.RegODP, kv.RegPinDown, kv.RegPinned}
	res := &KVResult{
		Policies: policies,
		Ops:      make([]int, len(policies)),
		P50Us:    make([]float64, len(policies)),
		P99Us:    make([]float64, len(policies)),
		P999Us:   make([]float64, len(policies)),
		NPFs:     make([]uint64, len(policies)),
		Evicts:   make([]uint64, len(policies)),
		Majors:   make([]uint64, len(policies)),
		Shed:     make([]uint64, len(policies)),
		Failover: make([]uint64, len(policies)),
	}
	var jobs []func()
	for i, pol := range policies {
		i, pol := i, pol
		jobs = append(jobs, func() {
			svc, wl := s.runKVDeployment(43, pol, ops, s.tracer)
			res.Ops[i] = wl.Completed()
			res.P50Us[i] = wl.Lat.Percentile(50)
			res.P99Us[i] = wl.Lat.Percentile(99)
			res.P999Us[i] = wl.Lat.Percentile(99.9)
			res.NPFs[i] = svc.NPFs()
			res.Evicts[i] = svc.GroupEvictions()
			res.Majors[i] = svc.MajorFaults()
			res.Shed[i] = svc.Shed.N
			res.Failover[i] = svc.Failovers.N
		})
	}
	s.runJobs(jobs)
	return res
}

// newKVDeployment builds cfg's service on a fresh one-partition group
// seeded seed, on the fabric of cfg.Transport. mk makes the tracer every
// host records on (a nil tracer: untraced).
func (s *Scope) newKVDeployment(seed int64, cfg kv.Config, mk func(*sim.Engine) *trace.Tracer) (*sim.Group, *kv.Service) {
	fcfg := fabric.DefaultEthernet()
	if cfg.Transport == kv.TransportRC {
		fcfg = fabric.DefaultInfiniBand()
	}
	g := s.newBenchGroup(seed, 1, fcfg.Lookahead())
	eng := g.Engine(0)
	return g, kv.New(eng, fabric.NewOnGroup(g, fcfg), mk(eng), cfg)
}

// runKVDeployment is the deployment kv and anatomy share: one policy's
// service (3 servers x 4 shards x 2 replicas, NVMe-class swap, see
// newKVDeployment) under the reclaim waves, running ops Zipf-skewed
// operations to completion on a group seeded seed.
func (s *Scope) runKVDeployment(seed int64, pol kv.RegPolicy, ops int, mk func(*sim.Engine) *trace.Tracer) (*kv.Service, *kv.Workload) {
	g, svc := s.newKVDeployment(seed, kv.Config{
		ServerHosts: 3, ClientHosts: 1, Shards: 4, Replicas: 2,
		Reg: pol, ExpectedKeys: 1024,
	}, mk)
	eng := svc.Eng
	// NVMe-class swap: the sweep measures reclaim racing the data path in
	// the tail, not disk seek times drowning everything.
	for _, h := range svc.Hosts {
		h.M.Swap.ReadLatency = 200 * sim.Microsecond
	}
	groups := svc.Groups()
	for w := 0; w < kvWaves; w++ {
		at := kvWaveStart + sim.Time(w)*kvWavePeriod
		eng.At(at, func() {
			for _, g := range groups {
				g.SetLimit(kvWaveFloor)
			}
		})
		eng.At(at+kvWaveHold, func() {
			for _, g := range groups {
				g.SetLimit(0)
			}
		})
	}
	wl := svc.NewWorkload(kv.WorkloadConfig{
		TargetOps: ops, Keys: 1024, ZipfS: 1.1, GetRatio: 0.9,
		Prepopulate: true, FrontCacheEntries: 32,
	})
	wl.OnDone = func() { eng.After(300*sim.Millisecond, func() { svc.Stop() }) }
	wl.Start()
	g.RunUntil(120 * sim.Second)
	return svc, wl
}

// Rows flattens the result into the kv artifact section.
func (r *KVResult) Rows() []artifact.KVRow {
	rows := make([]artifact.KVRow, len(r.Policies))
	for i, pol := range r.Policies {
		rows[i] = artifact.KVRow{
			Policy:    pol.String(),
			Ops:       r.Ops[i],
			P99Us:     r.P99Us[i],
			NPFs:      r.NPFs[i],
			Evictions: r.Evicts[i],
			Shed:      r.Shed[i],
			Failovers: r.Failover[i],
		}
	}
	return rows
}

// Render prints the ablation table.
func (r *KVResult) Render() string {
	var b strings.Builder
	b.WriteString("Distributed KV: registration policy vs tail latency under reclaim\n")
	fmt.Fprintf(&b, "(3 servers x 4 shards x 2 replicas; %d reclaim waves to %d KB per group)\n\n",
		kvWaves, kvWaveFloor>>10)
	rows := make([][]string, len(r.Policies))
	for i, pol := range r.Policies {
		rows[i] = []string{
			pol.String(),
			fmt.Sprintf("%d", r.Ops[i]),
			fmt.Sprintf("%.0f", r.P50Us[i]),
			fmt.Sprintf("%.0f", r.P99Us[i]),
			fmt.Sprintf("%.0f", r.P999Us[i]),
			fmt.Sprintf("%d", r.NPFs[i]),
			fmt.Sprintf("%d", r.Evicts[i]),
			fmt.Sprintf("%d", r.Majors[i]),
			fmt.Sprintf("%d", r.Shed[i]),
		}
	}
	b.WriteString(table(
		[]string{"registration", "ops", "p50us", "p99us", "p999us", "npfs", "evictions", "majflt", "shed"},
		rows))
	b.WriteString("\n(pinned arenas ignore the squeeze: no evictions, no refaults, but the\n")
	b.WriteString("memory is never reclaimable; ODP pays the tail and gives it back)\n")
	return b.String()
}
