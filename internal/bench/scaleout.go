package bench

import (
	"fmt"
	"strings"

	"npf/internal/artifact"
	"npf/internal/fabric"
	"npf/internal/topo"
	"npf/internal/workload"
)

// ScaleoutResult is the million-user cluster sweep: one fleet per transport
// (Ethernet rings, IB UD datagrams), each instantiating O(10^3) hosts and
// O(10^5) logical clients on one deterministic simulation, with the three
// registration policies split across tenants so policy shows up as
// fleet-wide tail latency. One row per transport.
type ScaleoutResult struct {
	Quick   bool
	Results []topo.Result // indexed like scaleoutTransports
}

// scaleoutTransports fixes the sweep order (and the result row order).
var scaleoutTransports = []topo.Transport{topo.TransportEth, topo.TransportUD}

// scaleoutParts is the sweep's partition count. It is fixed by the fleet
// shape — racks deal onto partitions via topo.Topology.Partition — and
// never by the -engines budget, so the Result (fingerprint included) is
// byte-identical for every Scope.Engines and Workers value; budgets only
// move wall-clock. Engines == 0 runs the same 8-partition group on one thread.
const scaleoutParts = 8

// scaleoutSeed seeds both fleets. Each transport's job builds a private
// group from it, so jobs are seed-isolated and order-independent.
const scaleoutSeed = 42

// ScaleoutConfig is the canonical fleet: 1,008 hosts (64 servers + 944
// swarm hosts) and 101,000 logical clients split over the three-policy
// tenant spectrum, 202,000 ops against a 64Ki key space, with three
// fleet-wide reclaim waves squeezing every tenant group. quick shrinks it
// to a 64-host/3,600-client smoke with the same shape.
func ScaleoutConfig(tr topo.Transport, quick bool) topo.SweepConfig {
	cfg := topo.SweepConfig{
		Servers:    64,
		SwarmHosts: 944,
		Transport:  tr,
		Tenants: []topo.TenantSpec{
			{Workload: workload.Config{Tenant: "odp", Clients: 34000, TargetOps: 68000, Keys: 65536, Prepopulate: true}, Reg: topo.RegODP},
			{Workload: workload.Config{Tenant: "pindown", Clients: 34000, TargetOps: 68000, Keys: 65536, Prepopulate: true}, Reg: topo.RegPinDown},
			{Workload: workload.Config{Tenant: "pinned", Clients: 33000, TargetOps: 66000, Keys: 65536, Prepopulate: true}, Reg: topo.RegPinned},
		},
		ReclaimWaves: 3,
	}
	if quick {
		cfg.Servers, cfg.SwarmHosts = 8, 56
		cfg.ReclaimWaves = 2
		for i := range cfg.Tenants {
			cfg.Tenants[i].Workload.Clients = 1200
			cfg.Tenants[i].Workload.TargetOps = 2400
			cfg.Tenants[i].Workload.Keys = 4096
		}
	}
	return cfg
}

// RunScaleout runs the sweep on both transports, each an independent
// seed-isolated job through the sweep runner.
func RunScaleout(s *Scope, quick bool) *ScaleoutResult {
	res := &ScaleoutResult{Quick: quick, Results: make([]topo.Result, len(scaleoutTransports))}
	var jobs []func()
	for i, tr := range scaleoutTransports {
		i, tr := i, tr
		jobs = append(jobs, func() { scaleoutJob(s, res, i, tr, quick) })
	}
	s.runJobs(jobs)
	return res
}

// scaleoutJob builds one transport's fleet on a fixed-partition group and
// runs it to quiescence. The fleet is the one partitioned experiment: the
// group is the topology, so -engines 0, 1, and 8 all execute the identical
// partition structure.
func scaleoutJob(s *Scope, res *ScaleoutResult, i int, tr topo.Transport, quick bool) {
	fcfg := fabric.DefaultEthernet()
	if tr == topo.TransportUD {
		fcfg = fabric.DefaultInfiniBand()
	}
	g := s.newBenchGroup(scaleoutSeed, scaleoutParts, fcfg.Lookahead())
	net := fabric.NewOnGroup(g, fcfg)
	sw, err := topo.New(g.Engine(0), net, ScaleoutConfig(tr, quick))
	if err != nil {
		panic("bench: scaleout config: " + err.Error())
	}
	sw.Run()
	res.Results[i] = sw.Result()
}

// Rows flattens the sweep into the scale_out artifact section.
func (r *ScaleoutResult) Rows() []artifact.ScaleOutRow {
	rows := make([]artifact.ScaleOutRow, len(r.Results))
	for i, res := range r.Results {
		row := artifact.ScaleOutRow{
			Transport:    res.Transport,
			Hosts:        res.Hosts,
			Clients:      res.Clients,
			Ops:          res.Ops,
			NPFs:         res.NPFs,
			Evictions:    res.Evictions,
			DropsFault:   res.DropsFault,
			BytesPerHost: res.BytesPerHost,
			Fingerprint:  fmt.Sprintf("%016x", res.Fingerprint),
		}
		for _, tn := range res.Tenants {
			row.Tenants = append(row.Tenants, artifact.TenantRow{
				Tenant:   tn.Tenant,
				Reg:      tn.Reg,
				Clients:  tn.Clients,
				Ops:      tn.Ops,
				Timeouts: tn.Timeouts,
				Lost:     tn.Lost,
				P50Us:    tn.P50us,
				P99Us:    tn.P99us,
			})
		}
		rows[i] = row
	}
	return rows
}

// Render prints the fleet table plus the per-tenant policy spectrum.
func (r *ScaleoutResult) Render() string {
	var b strings.Builder
	b.WriteString("Cluster sweep: registration policy as fleet-wide tail latency\n")
	cfg := ScaleoutConfig(topo.TransportEth, r.Quick)
	total := 0
	for _, t := range cfg.Tenants {
		total += t.Workload.Clients
	}
	fmt.Fprintf(&b, "(%d hosts = %d servers + %d swarm; %d logical clients; %d reclaim waves)\n\n",
		cfg.Servers+cfg.SwarmHosts, cfg.Servers, cfg.SwarmHosts, total, cfg.ReclaimWaves)
	var rows [][]string
	for _, res := range r.Results {
		rows = append(rows, []string{
			res.Transport,
			fmt.Sprintf("%d", res.Hosts),
			fmt.Sprintf("%d", res.Clients),
			fmt.Sprintf("%d", res.Ops),
			fmt.Sprintf("%d", res.NPFs),
			fmt.Sprintf("%d", res.Evictions),
			fmt.Sprintf("%d", res.DropsFault),
			fmt.Sprintf("%d", res.BytesPerHost),
			fmt.Sprintf("%016x", res.Fingerprint),
		})
	}
	b.WriteString(table(
		[]string{"transport", "hosts", "clients", "ops", "npfs", "evictions", "drops", "bytes/host", "fingerprint"},
		rows))
	b.WriteString("\n")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%s tenants:\n", res.Transport)
		var trows [][]string
		for _, tn := range res.Tenants {
			trows = append(trows, []string{
				tn.Tenant,
				tn.Reg,
				fmt.Sprintf("%d", tn.Clients),
				fmt.Sprintf("%d", tn.Ops),
				fmt.Sprintf("%d", tn.Timeouts),
				fmt.Sprintf("%d", tn.Lost),
				fmt.Sprintf("%.0f", tn.P50us),
				fmt.Sprintf("%.0f", tn.P99us),
				fmt.Sprintf("%.0f", tn.P999us),
			})
		}
		b.WriteString(table(
			[]string{"tenant", "reg", "clients", "ops", "timeouts", "lost", "p50us", "p99us", "p999us"},
			trows))
		b.WriteString("\n")
	}
	b.WriteString("(same fleet, same load: the pinned tenant's tail is flat while the ODP\n")
	b.WriteString("tenant absorbs reclaim waves as page faults; bytes/host is the modelled\n")
	b.WriteString("per-host state — the cheap-per-host gate that makes 10^3 hosts fit)\n")
	return b.String()
}
