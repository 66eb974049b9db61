package bench

import (
	"fmt"
	"strings"

	"npf/internal/apps"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/sim"
)

// Figure 7 runs at 1/16 of the paper's memory scale: 1 GB shared budget →
// 64 MB (+ slop for ring buffers), 100↔900 MB working sets → 6.25↔56.25 MB,
// 20 KB items → 16 KB.
const (
	// fig7Service is heavier than the Figure 4 server so the 60-second
	// runs stay tractable; hits/s are scaled accordingly.
	fig7Service   = 150 * sim.Microsecond
	fig7Cgroup    = 72 << 20
	fig7ItemSize  = 16 << 10
	fig7SmallKeys = 400  // ≈ 6.25 MB
	fig7BigKeys   = 3600 // ≈ 56.25 MB
	fig7Flip      = 20 * sim.Second
	fig7End       = 60 * sim.Second
	fig7VMBytes   = 160 << 20 // NPF VMs' virtual size (overcommitted)
	fig7PinBytes  = 36 << 20  // pinned VMs: half the physical budget each
	fig7PinCap    = 30 << 20  // memcached -m within the pinned VM
)

// Fig7Result holds per-instance and combined hits/s series for both modes.
type Fig7Result struct {
	// Series[mode][instance] is (seconds, KHPS) points; instance 0 grows
	// 100→900, instance 1 shrinks 900→100.
	Series map[string][2][][2]float64
}

// RunFig7 reproduces Figure 7: two memcached instances whose working sets
// flip at t=20s (paper: t=50s), under NPF (shared physical budget, demand
// paged) vs pinning (static 50/50 split).
func RunFig7(s *Scope) *Fig7Result {
	res := &Fig7Result{Series: make(map[string][2][][2]float64)}
	modes := []string{"npf", "pin"}
	pairs := make([][2][][2]float64, len(modes))
	jobs := make([]func(), len(modes))
	for mi, mode := range modes {
		mi, mode := mi, mode
		jobs[mi] = func() { pairs[mi] = runFig7Mode(s, mode) }
	}
	s.runJobs(jobs)
	for mi, mode := range modes {
		res.Series[mode] = pairs[mi]
	}
	return res
}

// runFig7Mode runs one configuration (shared-budget NPF or static pinning)
// on a private engine and returns the two instances' hit-rate series.
func runFig7Mode(s *Scope, mode string) [2][][2]float64 {
	e := NewEthEnv(EthOpts{Seed: 17, ServerRAM: 1 << 30, Policy: nic.PolicyBackup, RingSize: 64, Scope: s})
	var cgroup *mem.Group
	if mode == "npf" {
		// One shared budget: memory moves to whoever needs it.
		cgroup = mem.NewGroup("shared", fig7Cgroup)
	}
	var slaps [2]*apps.Memaslap
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("inst%d", i)
		var srv *EthHost
		var err error
		var capacity int64
		if mode == "npf" {
			srv, err = e.AddServerInstance(name, nic.PolicyBackup, 64, cgroup, fig7VMBytes)
			capacity = 0 // bounded by the arena/cgroup, not memcached
		} else {
			srv, err = e.AddServerInstance(name, nic.PolicyPinned, 64, nil, fig7PinBytes)
			capacity = fig7PinCap
		}
		if err != nil {
			panic(err)
		}
		store := apps.NewKVStore(srv.AS, capacity)
		if mode == "npf" {
			store.SetArena(0, fig7VMBytes)
		} else {
			store.SetArena(0, fig7PinBytes-2<<20)
		}
		apps.NewKVServer(srv.Stack, store, fig7Service)
		cli := e.AddClientInstance("cli" + name)
		startKeys := fig7SmallKeys
		if i == 1 {
			startKeys = fig7BigKeys
		}
		slap := apps.NewMemaslap(cli.Stack, apps.MemaslapConfig{
			Conns: 2, GetRatio: 0.9, ValueSize: fig7ItemSize, Keys: startKeys,
			KeyPrefix: name, Prepopulate: true,
		}, sim.Second)
		slap.Start(srv.Chan.Dev.Node, srv.Chan.Flow)
		slaps[i] = slap
	}
	// The flip: instance 0 grows ×9, instance 1 shrinks ×9.
	e.Eng.At(fig7Flip, func() {
		slaps[0].SetWorkingSet(fig7BigKeys)
		slaps[1].SetWorkingSet(fig7SmallKeys)
	})
	e.RunUntil(fig7End)
	var pair [2][][2]float64
	for i, s := range slaps {
		times, rates := s.HitsTS.RatePoints()
		pts := make([][2]float64, len(times))
		for j := range times {
			pts[j] = [2]float64{times[j], rates[j] / 1000}
		}
		pair[i] = pts
	}
	return pair
}

// Render prints the per-instance and combined series.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: hits/s [KHPS, scaled] with working sets flipping at t=20s\n")
	b.WriteString("(paper flips at t=50s; sizes scaled 1/16)\n")
	for _, mode := range []string{"npf", "pin"} {
		pair := r.Series[mode]
		fmt.Fprintf(&b, "(%s)  t[s]  grow(100->900)  shrink(900->100)  combined\n", mode)
		n := len(pair[0])
		if len(pair[1]) < n {
			n = len(pair[1])
		}
		for i := 0; i < n; i++ {
			c := pair[0][i][1] + pair[1][i][1]
			fmt.Fprintf(&b, "  %4.0f  %8.2f  %8.2f  %8.2f\n",
				pair[0][i][0], pair[0][i][1], pair[1][i][1], c)
		}
	}
	b.WriteString("paper shape: with NPF both instances converge to equal full-rate service\n")
	b.WriteString("after the flip; with pinning the 900MB-working-set instance always\n")
	b.WriteString("suffers (its static 500MB cannot hold it), so combined NPF > pin\n")
	return b.String()
}
