package main

import (
	"hash/fnv"
	"math"
	"sort"

	"npf/internal/core"
	"npf/internal/mem"
	"npf/internal/nic"
)

// counts holds exact per-layer counters by metric name. A layer a workload
// does not exercise, or whose counter its public API does not expose, reads 0.
type counts map[string]uint64

// countNames fixes the exact counters' emission and fingerprint order.
var countNames = []string{
	"sim.events",
	"fabric.packets", "fabric.drops",
	"nic.rx_delivered", "nic.rx_backup", "nic.rx_drop_fault",
	"rc.packets", "rc.dropped", "rc.rnr_nacks", "rc.retransmits",
	"tcp.segs", "tcp.retransmits",
	"core.npfs", "core.major_npfs", "core.inv_mapped", "core.inv_fast",
	"iommu.faults",
	"mem.minor_faults", "mem.major_faults", "mem.evictions",
	"kv.shed", "kv.gets", "kv.front_hits", "kv.retries",
	"topo.ops", "topo.timeouts", "topo.lost", "topo.shed",
	"trace.fault_records", "trace.dropped",
}

func (c counts) addDevice(d *nic.Device) {
	c["nic.rx_delivered"] += d.RxDelivered.N
	c["nic.rx_backup"] += d.RxToBackup.N
	c["nic.rx_drop_fault"] += d.RxDroppedFault.N
	c["iommu.faults"] += d.MMU.Faults.N
}

func (c counts) addDriver(d *core.Driver) {
	c["core.npfs"] += d.NPFs.N
	c["core.major_npfs"] += d.MajorNPFs.N
	c["core.inv_mapped"] += d.Inv.Mapped.N
	c["core.inv_fast"] += d.Inv.FastPath.N
}

func (c counts) addSpaces(spaces ...*mem.AddressSpace) {
	for _, as := range spaces {
		c["mem.minor_faults"] += as.MinorFaults.N
		c["mem.major_faults"] += as.MajorFaults.N
		c["mem.evictions"] += as.Evicted.N
	}
}

// since returns the counters accumulated after the snapshot base.
func (c counts) since(base counts) counts {
	d := counts{}
	for _, n := range countNames {
		d[n] = c[n] - base[n]
	}
	return d
}

// ratios are useful work over attempts in the measured phase's counts, or 0
// when nothing was attempted.
var ratios = []struct {
	name     string
	useful   func(c counts) uint64
	attempts func(c counts) uint64
}{
	{"rc.goodput_ratio",
		func(c counts) uint64 { return c["rc.packets"] - c["rc.dropped"] },
		func(c counts) uint64 { return c["rc.packets"] }},
	{"nic.rx_useful_ratio",
		func(c counts) uint64 { return c["nic.rx_delivered"] },
		func(c counts) uint64 { return c["nic.rx_delivered"] + c["nic.rx_backup"] + c["nic.rx_drop_fault"] }},
	{"kv.front_hit_ratio",
		func(c counts) uint64 { return c["kv.front_hits"] },
		func(c counts) uint64 { return c["kv.gets"] }},
	{"topo.first_try_ratio",
		func(c counts) uint64 { return c["topo.ops"] },
		func(c counts) uint64 { return c["topo.ops"] + c["topo.timeouts"] }},
}

// fingerprint folds a rep's deterministic results: the sim_* metrics, the
// operation accounting and every exact count. Reps of one seed must agree.
func fingerprint(o outcome, c counts) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	fold := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	fold(math.Float64bits(o.p50))
	fold(math.Float64bits(o.p99))
	fold(o.samples)
	fold(uint64(o.simSpan))
	fold(o.ops)
	fold(o.attempted)
	fold(o.failed)
	for _, n := range countNames {
		fold(c[n])
	}
	return h.Sum64()
}

// spread is a median with its first and third quartiles, computed like
// Python's statistics.quantiles(values, n=4) (the exclusive method).
type spread struct {
	median, q1, q3 float64
	n              int
}

func summarize(values []float64) spread {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	s := spread{n: n}
	if n == 0 {
		return s
	}
	if n%2 == 1 {
		s.median = v[n/2]
	} else {
		s.median = (v[n/2-1] + v[n/2]) / 2
	}
	if n < 2 {
		s.q1, s.q3 = v[0], v[0]
		return s
	}
	quart := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	s.q1, s.q3 = quart(1), quart(3)
	return s
}

// iqrShare is the quartile distance as a share of the median.
func (s spread) iqrShare() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}
