package bench

import (
	"fmt"
	"strings"

	"npf/internal/apps"
	"npf/internal/nic"
	"npf/internal/sim"
)

// memcachedService is the per-request CPU time of the simulated memcached.
// The simulation is time-scaled (see EXPERIMENTS.md): absolute KTPS values
// are lower than the paper's testbed, shapes are preserved.
const memcachedService = 50 * sim.Microsecond

var fig4Policies = []nic.FaultPolicy{nic.PolicyDrop, nic.PolicyBackup, nic.PolicyPinned}

// Fig4aResult holds throughput-vs-time series for each policy during a
// cold-ring startup.
type Fig4aResult struct {
	// Series maps policy name to (seconds, KTPS) points.
	Series map[string][][2]float64
}

// RunFig4a reproduces Figure 4(a): memcached startup with a 64-entry cold
// receive ring under drop/backup/pin. Each policy runs as an independent
// job on its own engine.
func RunFig4a(s *Scope, duration sim.Time) *Fig4aResult {
	res := &Fig4aResult{Series: make(map[string][][2]float64)}
	series := make([][][2]float64, len(fig4Policies))
	jobs := make([]func(), len(fig4Policies))
	for pi, pol := range fig4Policies {
		pi, pol := pi, pol
		jobs[pi] = func() {
			e := NewEthEnv(EthOpts{Seed: 3, Policy: pol, RingSize: 64, Scope: s})
			store := apps.NewKVStore(e.Server.AS, 0)
			apps.NewKVServer(e.Server.Stack, store, memcachedService)
			slap := apps.NewMemaslap(e.Client.Stack, apps.MemaslapConfig{
				Conns: 8, GetRatio: 0.9, ValueSize: 1024, Keys: 500,
				KeyPrefix: "k", Prepopulate: true,
			}, sim.Second)
			slap.Start(e.Server.Chan.Dev.Node, e.Server.Chan.Flow)
			e.RunUntil(duration)
			times, rates := slap.OpsTS.RatePoints()
			pts := make([][2]float64, len(times))
			for i := range times {
				pts[i] = [2]float64{times[i], rates[i] / 1000}
			}
			series[pi] = pts
		}
	}
	s.runJobs(jobs)
	for pi, pol := range fig4Policies {
		res.Series[pol.String()] = series[pi]
	}
	return res
}

// Render prints the three startup series.
func (r *Fig4aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4(a): startup throughput [KTPS, scaled] vs time, 64-entry cold ring\n")
	maxRate := 0.0
	//npf:orderinvariant — max over all points is commutative
	for _, pts := range r.Series {
		for _, p := range pts {
			if p[1] > maxRate {
				maxRate = p[1]
			}
		}
	}
	for _, name := range []string{"pin", "backup", "drop"} {
		pts := r.Series[name]
		fmt.Fprintf(&b, "%s:\n", name)
		for _, p := range pts {
			width := 0
			if maxRate > 0 {
				width = int(p[1] / maxRate * 50)
			}
			fmt.Fprintf(&b, "  t=%4.0fs  %8.2f  %s\n", p[0], p[1], strings.Repeat("#", width))
		}
	}
	b.WriteString("paper shape: pin reaches steady state immediately; backup matches pin;\n")
	b.WriteString("drop is ~zero for tens of seconds (cold-ring near-deadlock)\n")
	return b.String()
}

// Fig4bResult holds time-to-10K-ops versus ring size.
type Fig4bResult struct {
	RingSizes []int
	// Seconds[policy][i] is the completion time for RingSizes[i];
	// negative means the run failed (connection aborted) or timed out.
	Seconds map[string][]float64
}

// RunFig4b reproduces Figure 4(b): time to perform 10 000 operations as a
// function of receive ring size.
func RunFig4b(s *Scope, ops int, ringSizes []int, timeout sim.Time) *Fig4bResult {
	if len(ringSizes) == 0 {
		ringSizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	}
	res := &Fig4bResult{RingSizes: ringSizes, Seconds: make(map[string][]float64)}
	// One job per (policy, ring size) point, each on a private engine.
	cols := make([][]float64, len(fig4Policies))
	var jobs []func()
	for pi, pol := range fig4Policies {
		pi, pol := pi, pol
		cols[pi] = make([]float64, len(ringSizes))
		for ri, ring := range ringSizes {
			ri, ring := ri, ring
			jobs = append(jobs, func() {
				e := NewEthEnv(EthOpts{Seed: 5, Policy: pol, RingSize: ring, Scope: s})
				store := apps.NewKVStore(e.Server.AS, 0)
				apps.NewKVServer(e.Server.Stack, store, memcachedService)
				slap := apps.NewMemaslap(e.Client.Stack, apps.MemaslapConfig{
					Conns: 8, GetRatio: 0.9, ValueSize: 1024, Keys: 500,
					KeyPrefix: "k", Prepopulate: true, TargetOps: ops,
				}, sim.Second)
				slap.OnDone = func() { e.Eng.Stop() }
				slap.Start(e.Server.Chan.Dev.Node, e.Server.Chan.Flow)
				e.RunUntil(timeout)
				switch {
				case slap.Failed && slap.DoneAt == 0:
					cols[pi][ri] = -1 // TCP gave up (paper: ring >= 128)
				case slap.DoneAt == 0:
					cols[pi][ri] = -2 // timed out
				default:
					cols[pi][ri] = slap.DoneAt.Seconds()
				}
			})
		}
	}
	s.runJobs(jobs)
	for pi, pol := range fig4Policies {
		res.Seconds[pol.String()] = cols[pi]
	}
	return res
}

// Render prints the ring-size sweep.
func (r *Fig4bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4(b): time to perform 10,000 operations vs receive ring size [s]\n")
	header := []string{"ring"}
	for _, p := range []string{"drop", "backup", "pin"} {
		header = append(header, p)
	}
	var rows [][]string
	for i, ring := range r.RingSizes {
		row := []string{fmt.Sprintf("%d", ring)}
		for _, p := range []string{"drop", "backup", "pin"} {
			v := r.Seconds[p][i]
			switch {
			case v == -1:
				row = append(row, "FAILED")
			case v == -2:
				row = append(row, "timeout")
			default:
				row = append(row, fmt.Sprintf("%.2f", v))
			}
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	b.WriteString("paper shape: drop >10s even at 16 entries and fails (TCP retry limit)\n")
	b.WriteString("at >=128; backup degrades gracefully with ring size; pin is flat\n")
	return b.String()
}
