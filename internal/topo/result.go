package topo

import (
	"math"
	"unsafe"

	"npf/internal/sim"
)

// TenantResult aggregates one tenant across the fleet.
type TenantResult struct {
	Tenant   string
	Reg      string
	Clients  int
	Servers  int
	Ops      uint64
	Hits     uint64
	Timeouts uint64
	Lost     uint64
	Shed     uint64 // server-side ops failed on memory pressure
	P50us    float64
	P99us    float64
	P999us   float64
	MeanUs   float64
}

// Result is one sweep's deterministic outcome: same seed, same config →
// byte-identical Result on any engine budget or thread count.
type Result struct {
	Transport  string
	Hosts      int
	Servers    int
	SwarmHosts int
	Clients    int
	Ops        uint64
	Tenants    []TenantResult

	// Fleet-wide NPF-machinery activity.
	NPFs       uint64
	MajorNPFs  uint64
	Evictions  uint64 // tenant-group LRU evictions (reclaim)
	RxBackup   uint64 // Eth: receives parked in backup rings
	DropsFault uint64 // receives dropped on faults (Eth drop path + UD)
	PinHits    uint64 // pin-down cache hits
	PinMisses  uint64
	Waves      int // reclaim waves executed (summed over servers)

	// StateBytes is the fleet's modelled memory footprint (see
	// Sweep.StateBytes); BytesPerHost = StateBytes / Hosts is the
	// cheap-per-host-state gate.
	StateBytes   int64
	BytesPerHost int64

	FinalTime   sim.Time
	Fingerprint uint64
}

// Result computes the aggregate after the run. Folding is in fixed host
// and tenant order, so the Fingerprint is a byte-identity check across
// engine budgets and thread counts.
func (s *Sweep) Result() Result {
	r := Result{
		Transport:  s.cfg.Transport.String(),
		Hosts:      s.Hosts(),
		Servers:    len(s.servers),
		SwarmHosts: len(s.swarms),
		Clients:    s.Clients(),
	}

	for _, t := range s.tenants {
		tr := TenantResult{
			Tenant:  t.cfg.Tenant,
			Reg:     t.spec.Reg.String(),
			Clients: t.cfg.Clients,
			Servers: len(t.servers),
		}
		var lat sim.Histogram
		for _, sh := range s.swarms {
			st := &sh.stats[t.idx]
			tr.Ops += st.ops
			tr.Hits += st.hits
			tr.Timeouts += st.timeouts
			tr.Lost += st.lost
			lat.Merge(&st.lat)
		}
		for _, si := range t.servers {
			tr.Shed += s.servers[si].tenants[t.idx].shed.N
		}
		if lat.Count() > 0 {
			tr.P50us = lat.Percentile(50)
			tr.P99us = lat.Percentile(99)
			tr.P999us = lat.Percentile(99.9)
			tr.MeanUs = lat.Mean()
		}
		r.Ops += tr.Ops
		r.Tenants = append(r.Tenants, tr)
	}

	for _, srv := range s.servers {
		r.NPFs += srv.host.Drv.NPFs.N
		r.MajorNPFs += srv.host.Drv.MajorNPFs.N
		r.Waves += srv.waves
		if srv.host.Dev != nil {
			r.RxBackup += srv.host.Dev.RxToBackup.N
			r.DropsFault += srv.host.Dev.RxDroppedFault.N
		}
		if srv.host.HCA != nil {
			r.DropsFault += srv.host.HCA.UDDropsFault.N
		}
		for _, st := range srv.tenants {
			if st == nil {
				continue
			}
			r.Evictions += st.group.Evictions.N
			if st.pdc != nil {
				r.PinHits += st.pdc.Hits.N
				r.PinMisses += st.pdc.Misses.N
			}
		}
	}

	r.StateBytes = s.StateBytes()
	r.BytesPerHost = r.StateBytes / int64(r.Hosts)
	r.FinalTime = s.finalTime()
	r.Fingerprint = r.fingerprint()
	return r
}

func (s *Sweep) finalTime() sim.Time {
	var t sim.Time
	for _, e := range s.group.Engines() {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// fingerprint folds the result into one FNV-1a word — the byte-identity
// digest determinism tests and the npfstat gate compare.
func (r *Result) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	fold(uint64(r.Hosts))
	fold(uint64(r.Clients))
	fold(r.Ops)
	for _, t := range r.Tenants {
		fold(t.Ops)
		fold(t.Hits)
		fold(t.Timeouts)
		fold(t.Lost)
		fold(t.Shed)
		fold(math.Float64bits(t.P50us))
		fold(math.Float64bits(t.P99us))
		fold(math.Float64bits(t.MeanUs))
	}
	fold(r.NPFs)
	fold(r.MajorNPFs)
	fold(r.Evictions)
	fold(r.RxBackup)
	fold(r.DropsFault)
	fold(r.PinHits)
	fold(r.PinMisses)
	fold(uint64(r.StateBytes))
	fold(uint64(r.FinalTime))
	return h
}

// Model-state cost constants: what one modelled object is worth in the
// bytes-per-host accounting. These are deliberately fixed constants (plus
// unsafe.Sizeof of the real per-client structs) rather than Go heap
// measurements — heap numbers depend on GC timing and thread interleaving,
// and this metric must be byte-identical across runs.
const (
	pteModelBytes      = 96 // per materialised page-table entry
	ringSlotModelBytes = 64 // per receive descriptor / WQE
	pdcEntryModelBytes = 48 // per pinned page tracked by a pin-down cache
	serverBaseBytes    = 4096
	swarmEthBaseBytes  = 256
	swarmUDBaseBytes   = 2048
)

// StateBytes is the fleet's modelled memory footprint: interned page
// metadata (lazily materialised PTEs), ring slots, pin-down cache entries,
// per-tenant server state, and the per-client structs. Measurement
// apparatus (latency histograms) is excluded — the metric answers "what
// does one more host cost", not "what does observing it cost".
func (s *Sweep) StateBytes() int64 {
	var total int64
	for _, srv := range s.servers {
		total += serverBaseBytes
		for _, st := range srv.tenants {
			if st == nil {
				continue
			}
			total += int64(unsafe.Sizeof(*st))
			total += int64(len(st.present)) * 8
			total += int64(st.as.PTEs()) * pteModelBytes
			total += int64(s.cfg.RingSize) * ringSlotModelBytes
			if st.pdc != nil {
				total += st.pdc.PinnedBytes() / 4096 * pdcEntryModelBytes
			}
		}
	}
	for _, sh := range s.swarms {
		if sh.qp != nil {
			total += swarmUDBaseBytes
			total += sh.rxDepth * ringSlotModelBytes
			total += int64(sh.qp.AS.PTEs()) * pteModelBytes
		} else {
			total += swarmEthBaseBytes
		}
		total += int64(len(sh.clients)) * int64(unsafe.Sizeof(swarmClient{}))
		total += int64(len(sh.stats)) * 64
	}
	return total
}
