package bench

import (
	"fmt"
	"strings"

	"npf/internal/artifact"
	"npf/internal/kv"
	"npf/internal/sim"
	"npf/internal/trace"
)

// AnatomyResult is the fault-anatomy profile: the distributed-KV deployment
// of RunKV re-run per registration policy with the causal fault recorder
// always on, post-processed into the paper's per-stage anatomy table and a
// critical-path extraction for the tail. Unlike the other experiments it
// does not use the scope's Trace factory — the recorder is the experiment,
// so its tracers stay out of -trace and -series.
type AnatomyResult struct {
	Policies []kv.RegPolicy
	Stages   []map[string]*sim.Histogram // per-policy stage -> latency (µs)
	Paths    [][]trace.PathCount         // per-policy fault-path provenance
	Crit     []*trace.CritPath           // per-policy p99 critical path (nil: no faults)
	Faults   []int                       // completed fault records
	Pending  []int                       // minted but never resumed by run end
	NPFs     []uint64                    // driver NPF count, for cross-checking
	EvDrop   []uint64                    // flight-ring events overwritten
	RecDrop  []uint64                    // records dropped at the cap

	// tracers holds each policy's tracer: what the run recorded.
	tracers []*trace.Tracer
}

// RunAnatomy profiles the NPF lifecycle per registration policy. Each
// policy is an independent, seed-isolated job through the sweep runner and
// writes only its own row, so output is byte-identical for any Workers
// budget.
func RunAnatomy(s *Scope, quick bool) *AnatomyResult {
	ops := 4000
	if quick {
		ops = 1200
	}
	policies := []kv.RegPolicy{kv.RegODP, kv.RegPinDown, kv.RegPinned}
	n := len(policies)
	res := &AnatomyResult{
		Policies: policies,
		Stages:   make([]map[string]*sim.Histogram, n),
		Paths:    make([][]trace.PathCount, n),
		Crit:     make([]*trace.CritPath, n),
		Faults:   make([]int, n),
		Pending:  make([]int, n),
		NPFs:     make([]uint64, n),
		EvDrop:   make([]uint64, n),
		RecDrop:  make([]uint64, n),
		tracers:  make([]*trace.Tracer, n),
	}
	var jobs []func()
	for i, pol := range policies {
		i, pol := i, pol
		jobs = append(jobs, func() { anatomyJob(s, res, i, pol, ops) })
	}
	s.runJobs(jobs)
	return res
}

// anatomyJob is kv's deployment with the recorder on: a different seed and
// a tracer created unconditionally.
func anatomyJob(s *Scope, res *AnatomyResult, i int, pol kv.RegPolicy, ops int) {
	svc, _ := s.runKVDeployment(47, pol, ops, trace.New)
	tr := svc.Tracer
	recs := tr.FaultRecords()
	res.Stages[i] = trace.FaultStageBreakdown(recs)
	res.Paths[i] = trace.FaultPathCounts(recs)
	res.Crit[i] = trace.CriticalPath(recs, 99)
	res.Faults[i] = len(recs)
	res.Pending[i] = tr.PendingFaults()
	res.NPFs[i] = svc.NPFs()
	res.EvDrop[i] = tr.DroppedFaultEvents()
	res.RecDrop[i] = tr.DroppedFaultRecords()
	res.tracers[i] = tr
}

// Rows flattens the result into the fault_anatomy artifact section.
func (r *AnatomyResult) Rows() []artifact.AnatomyRow {
	rows := make([]artifact.AnatomyRow, len(r.Policies))
	for i, pol := range r.Policies {
		row := artifact.AnatomyRow{
			Policy: pol.String(), Faults: r.Faults[i], Pending: r.Pending[i],
			NPFs:      r.NPFs[i],
			CritStage: "-", CritLayer: "-", CritHost: -1,
			DroppedEvents: r.EvDrop[i], DroppedRecords: r.RecDrop[i],
		}
		if tot := r.Stages[i]["total"]; tot != nil && tot.Count() > 0 {
			row.TotalP50Us = tot.Percentile(50)
			row.TotalP99Us = tot.Percentile(99)
		}
		if c := r.Crit[i]; c != nil && len(c.Stages) > 0 {
			row.CritStage = c.Stages[0].Stage
			row.CritLayer = c.Stages[0].Layer
			row.CritHost = c.Stages[0].Host
			row.CritShare = c.Stages[0].MeanShare
		}
		rows[i] = row
	}
	return rows
}

// Render prints the per-policy anatomy tables and critical paths. No wall
// clock, no map order: the output is byte-identical for any -parallel
// budget.
func (r *AnatomyResult) Render() string {
	var b strings.Builder
	b.WriteString("Fault anatomy: causal NPF lifecycle per registration policy\n")
	fmt.Fprintf(&b, "(3 servers x 4 shards x 2 replicas; %d reclaim waves to %d KB per group)\n",
		kvWaves, kvWaveFloor>>10)
	for i, pol := range r.Policies {
		fmt.Fprintf(&b, "\n== policy %s ==\n", pol)
		fmt.Fprintf(&b, "faults %d completed, %d pending; driver NPFs %d\n",
			r.Faults[i], r.Pending[i], r.NPFs[i])
		if len(r.Paths[i]) > 0 {
			b.WriteString("paths:")
			for _, p := range r.Paths[i] {
				fmt.Fprintf(&b, " %s:%d", p.Name, p.N)
			}
			b.WriteString("\n")
		}
		if r.EvDrop[i]+r.RecDrop[i] > 0 {
			fmt.Fprintf(&b, "dropped: %d flight events, %d records\n",
				r.EvDrop[i], r.RecDrop[i])
		}
		if r.Faults[i] == 0 {
			b.WriteString("(no faults: nothing to dissect)\n")
			continue
		}
		trace.WriteStageTable(&b, r.Stages[i])
		r.Crit[i].Write(&b)
	}
	return b.String()
}
