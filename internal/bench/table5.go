package bench

import (
	"fmt"
	"strings"

	"npf/internal/apps"
	"npf/internal/nic"
	"npf/internal/sim"
)

// Table 5 runs at 1/32 of the paper's memory scale to keep event counts
// tractable: host 8 GB → 256 MB, VM 3 GB → 96 MB, working set <2 GB →
// 48 MB. Shapes (who fits, who fails) are scale-invariant.
const (
	t5HostRAM = 256 << 20
	t5VMBytes = 96 << 20
	t5Keys    = 12000 // × 4 KB values = 48 MB working set
	t5ValueSz = 4096
	t5Conns   = 2
	t5Measure = 4 * sim.Second
	t5Prepop  = 3 * sim.Second
)

// Table5Result holds aggregated throughput for 1–4 memcached VMs.
type Table5Result struct {
	// KTPS[mode][n-1] is the aggregated throughput with n instances;
	// negative means the configuration could not run (pinning OOM).
	KTPS map[string][]float64
}

// RunTable5 reproduces Table 5: overcommitment with static working sets.
// Every (mode, instance-count) cell is an independent job on its own
// engine, executed through the sweep runner and merged in fixed order, so
// output does not depend on the fan-out.
func RunTable5(s *Scope) *Table5Result {
	modes := []struct {
		name   string
		policy nic.FaultPolicy
	}{{"NPF", nic.PolicyBackup}, {"pinning", nic.PolicyPinned}}
	cols := make([][]float64, len(modes))
	var jobs []func()
	for mi, mode := range modes {
		mi, mode := mi, mode
		cols[mi] = make([]float64, 4)
		for n := 1; n <= 4; n++ {
			mi, n := mi, n
			jobs = append(jobs, func() {
				ktps, ok := runTable5Config(s, mode.policy, n)
				if !ok {
					ktps = -1
				}
				cols[mi][n-1] = ktps
			})
		}
	}
	s.runJobs(jobs)
	res := &Table5Result{KTPS: make(map[string][]float64)}
	for mi, mode := range modes {
		res.KTPS[mode.name] = cols[mi]
	}
	return res
}

func runTable5Config(s *Scope, policy nic.FaultPolicy, instances int) (float64, bool) {
	e := NewEthEnv(EthOpts{Seed: 13, ServerRAM: t5HostRAM, Policy: nic.PolicyBackup, RingSize: 64, Scope: s})
	var slaps []*apps.Memaslap
	for i := 0; i < instances; i++ {
		name := fmt.Sprintf("vm%d", i)
		srv, err := e.AddServerInstance(name, policy, 64, nil, t5VMBytes)
		if err != nil {
			return 0, false // Table 5's N/A: the VMs' memory does not fit pinned
		}
		store := apps.NewKVStore(srv.AS, 0)
		store.SetArena(0, t5VMBytes)
		apps.NewKVServer(srv.Stack, store, memcachedService)
		cli := e.AddClientInstance("cli" + name)
		slap := apps.NewMemaslap(cli.Stack, apps.MemaslapConfig{
			Conns: t5Conns, GetRatio: 0.9, ValueSize: t5ValueSz, Keys: t5Keys,
			KeyPrefix: name, Prepopulate: true,
		}, sim.Second)
		slap.Start(srv.Chan.Dev.Node, srv.Chan.Flow)
		slaps = append(slaps, slap)
	}
	// Warm-up/prepopulation phase, then measure.
	e.RunUntil(t5Prepop)
	var opsBefore uint64
	for _, s := range slaps {
		opsBefore += s.Ops.N
	}
	e.RunUntil(t5Prepop + t5Measure)
	var opsAfter uint64
	for _, s := range slaps {
		opsAfter += s.Ops.N
	}
	return float64(opsAfter-opsBefore) / t5Measure.Seconds() / 1000, true
}

// Render prints Table 5.
func (r *Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 5: aggregated memcached throughput [KTPS, scaled] vs #instances\n")
	b.WriteString("(8 GB host, 3 GB VMs, <2 GB working sets; all sizes scaled 1/32)\n")
	header := []string{"memcached instances", "1", "2", "3", "4"}
	var rows [][]string
	for _, mode := range []string{"NPF", "pinning"} {
		row := []string{mode}
		for _, v := range r.KTPS[mode] {
			if v < 0 {
				row = append(row, "N/A")
			} else {
				row = append(row, fmt.Sprintf("%.0f", v))
			}
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	b.WriteString("paper: NPF 186/311/407/484; pinning 185/310/N/A/N/A\n")
	b.WriteString("shape: NPF scales to 4 VMs; pinning cannot start >2 (9 GB virtual > 8 GB)\n")
	return b.String()
}
