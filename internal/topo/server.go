package topo

import (
	"fmt"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
)

// serverHost is one server in the fleet: a full HostSpec substrate plus
// per-tenant receive state. Tenant state is allocated only for tenants
// placed on this server (see Sweep.buildServerTenants).
type serverHost struct {
	sweep *Sweep
	idx   int
	host  *Host
	// tenants is indexed by tenant id; nil where the tenant is not placed
	// here.
	tenants []*serverTenant

	// reclaimCost accumulates the synchronous kernel time spent by
	// reclaim waves on this host (reported, not charged to ops: the waves
	// model kswapd, which runs off the op path).
	reclaimCost sim.Time
	waves       int
}

// serverTenant is one tenant's presence on one server: its memory group,
// one address space holding the receive ring and the value arena, the
// receive endpoint (channel or UD QP), and — policy-dependent — a pin-down
// cache.
type serverTenant struct {
	srv    *serverHost
	tenant *tenantState

	group *mem.Group
	as    *mem.AddressSpace
	ch    *nic.Channel // TransportEth
	qp    *rc.QP       // TransportUD

	ringBase  mem.VAddr
	ringBufSz int64
	replyBuf  mem.VAddr // UD only: reply staging buffer
	udHead    int64     // next UD receive buffer to repost

	arenaBase mem.VAddr
	slotSize  int64
	slots     int64
	present   []uint64 // per-slot presence bitset

	pdc *core.PinDownCache

	ops  sim.Counter
	hits sim.Counter
	shed sim.Counter // ops that failed arena access (OOM under pressure)
}

func (s *Sweep) newServerHost(idx int, eng *sim.Engine) *serverHost {
	spec := HostSpec{RAM: s.cfg.ServerRAM}
	if s.cfg.Transport == TransportEth {
		c := nic.DefaultConfig()
		spec.NIC = &c
	} else {
		c := rc.DefaultConfig()
		spec.HCA = &c
	}
	srv := &serverHost{
		sweep:   s,
		idx:     idx,
		host:    spec.Build(eng, s.net, nil, fmt.Sprintf("srv-%03d", idx)),
		tenants: make([]*serverTenant, len(s.cfg.Tenants)),
	}
	return srv
}

func (sv *serverHost) node() fabric.NodeID {
	if sv.host.Dev != nil {
		return sv.host.Dev.Node
	}
	return sv.host.HCA.Node
}

// addTenant materialises tenant t's state on this server: one address
// space (ring buffers first, then the arena), registered under the
// tenant's memory group and wired per its registration policy.
func (sv *serverHost) addTenant(t *tenantState) *serverTenant {
	s := sv.sweep
	spec := t.spec
	name := fmt.Sprintf("%s@%s", t.cfg.Tenant, sv.host.Name)

	slotSize := int64((s.cfg.ValueBytes + slotAlign - 1) / slotAlign * slotAlign)
	if slotSize == 0 {
		slotSize = slotAlign
	}
	arenaBytes := spec.ArenaBytes
	if arenaBytes == 0 {
		arenaBytes = slotSize * int64(2*t.keysPerServer+8)
	}
	arenaBytes = (arenaBytes + mem.PageSize - 1) / mem.PageSize * mem.PageSize

	ringBufSz := int64(mem.PageSize)
	ringBytes := int64(s.cfg.RingSize) * ringBufSz
	if s.cfg.Transport == TransportUD {
		ringBytes += ringBufSz // reply staging buffer
	}

	limit := spec.GroupLimitBytes
	if limit == 0 {
		limit = arenaBytes + ringBytes + mem.PageSize
	}

	st := &serverTenant{
		srv:       sv,
		tenant:    t,
		group:     mem.NewGroup(name, limit),
		ringBufSz: ringBufSz,
		slotSize:  slotSize,
		slots:     arenaBytes / slotSize,
	}
	st.as = sv.host.M.NewAddressSpace(name, st.group)
	st.ringBase = st.as.MapBytes(ringBytes)
	st.arenaBase = st.as.MapBytes(arenaBytes)
	st.present = make([]uint64, (st.slots+63)/64)
	if s.cfg.Transport == TransportUD {
		st.replyBuf = st.ringBase + mem.VAddr(int64(s.cfg.RingSize))*mem.VAddr(ringBufSz)
	}

	switch s.cfg.Transport {
	case TransportEth:
		policy := nic.PolicyBackup
		if spec.Reg == RegPinned {
			policy = nic.PolicyPinned
		}
		st.ch = sv.host.Dev.NewChannel(name, st.as, s.cfg.RingSize, policy, s.cfg.RingSize)
		st.ch.SetRxHandler(st)
		if spec.Reg != RegPinned {
			sv.host.Drv.EnableODP(st.ch)
		}
	default:
		st.qp = sv.host.HCA.NewQPShared(st.as, nil)
		st.qp.OnRecv = st.udRecv
		if spec.Reg != RegPinned {
			sv.host.Drv.EnableODPQP(st.qp)
		}
	}

	switch spec.Reg {
	case RegPinned:
		// Everything resident and mapped up front; no faults, no reclaim —
		// and no way to give memory back under pressure.
		if _, err := core.StaticPinAll(st.as, st.dom()); err != nil {
			panic(fmt.Sprintf("topo: pinning %s: %v", name, err))
		}
	case RegPinDown:
		cache := spec.PinCacheBytes
		if cache == 0 {
			cache = arenaBytes / 2
		}
		st.pdc = core.NewPinDownCache(st.as, st.dom(), cache)
	}

	if t.cfg.Prepopulate {
		st.prepopulate()
	}

	st.postInitial()
	sv.tenants[t.idx] = st
	return st
}

func (st *serverTenant) dom() *iommu.Domain {
	if st.ch != nil {
		return st.ch.Domain
	}
	return st.qp.Domain
}

// prepopulate warms the arena (bootstrap writes, costs not charged — this
// models state loaded before the measurement window) and marks every slot
// present.
func (st *serverTenant) prepopulate() {
	for slot := int64(0); slot < st.slots; slot++ {
		addr := st.arenaBase + mem.VAddr(slot*st.slotSize)
		if _, err := st.as.Touch(addr, int(st.slotSize), true); err != nil {
			break // arena larger than the group limit: warm what fits
		}
	}
	for i := range st.present {
		st.present[i] = ^uint64(0)
	}
	tail := st.slots % 64
	if tail != 0 {
		st.present[len(st.present)-1] = (uint64(1) << tail) - 1
	}
}

// postInitial fills the receive ring (Eth descriptors or UD receive WQEs).
func (st *serverTenant) postInitial() {
	n := st.srv.sweep.cfg.RingSize
	for i := 0; i < n; i++ {
		st.post(int64(i))
	}
}

// post (re)posts receive slot idx — one page-sized buffer per slot.
func (st *serverTenant) post(idx int64) {
	addr := st.ringBase + mem.VAddr((idx%int64(st.srv.sweep.cfg.RingSize))*st.ringBufSz)
	if st.ch != nil {
		st.ch.Rx.PostRx(nic.Descriptor{Buffer: addr, Len: int(st.ringBufSz)})
		return
	}
	st.qp.PostRecv(rc.RecvWQE{ID: idx % int64(st.srv.sweep.cfg.RingSize), Addr: addr, Len: int(st.ringBufSz)})
}

// RxComplete implements nic.RxHandler: process each delivered request and
// recycle its descriptor.
func (st *serverTenant) RxComplete(_ *nic.Channel, comps []nic.RxCompletion) {
	for _, c := range comps {
		st.post(c.Index)
		st.handle(c.Payload.(*msg))
	}
}

// udRecv is the UD receive completion: recycle the buffer, then process.
func (st *serverTenant) udRecv(c rc.RecvCompletion) {
	st.udHead++
	st.post(st.udHead)
	st.handle(c.Payload.(*msg))
}

// handle runs one op: service time plus the registration-policy memory
// cost (pin-down acquire and/or the arena touch), then the reply, which is
// req itself rewritten in place.
func (st *serverTenant) handle(req *msg) {
	s := st.srv.sweep
	cost := s.cfg.ServiceTime
	slot := st.tenant.slotOf(req.key, st.slots)
	addr := st.arenaBase + mem.VAddr(slot*st.slotSize)
	n := int(st.slotSize)
	ok := true
	if st.pdc != nil {
		c, err := st.pdc.Acquire(addr, n)
		cost += c
		if err != nil {
			ok = false
		}
	}
	if ok {
		res, err := st.as.Touch(addr, n, !req.get)
		cost += res.Cost
		if err != nil {
			ok = false
		}
	}
	st.ops.Inc()
	hit := false
	if ok {
		hit = st.present[slot/64]&(1<<(uint(slot)%64)) != 0
		if !req.get {
			st.present[slot/64] |= 1 << (uint(slot) % 64)
		}
		if req.get && hit {
			st.hits.Inc()
		}
	} else {
		st.shed.Inc()
	}
	req.hit = ok && hit
	st.srv.host.Eng.AfterArg(cost, s.replyFn, req)
}

// reply sends rep, the request turned into its response, back to the swarm
// host that issued it. The swarm host owns rep from here on.
func (st *serverTenant) reply(rep *msg) {
	s := st.srv.sweep
	sh := s.swarms[rep.swarm]
	size := repHeaderBytes
	if rep.get && rep.hit {
		size += s.cfg.ValueBytes
	}
	if st.qp != nil {
		st.qp.PostSendUDTo(sh.udAddr, rc.SendWQE{Laddr: st.replyBuf, Len: size, Payload: rep})
		return
	}
	rep.Packet = fabric.Packet{Src: st.srv.node(), Dst: sh.node, Size: size, Payload: rep}
	s.net.Send(&rep.Packet)
}

// scheduleWaves arms this host's reclaim waves: wave k at k*every squeezes
// every tenant group limit to 3/4 (floored) — the fleet-wide memory
// pressure that makes registration policy visible in tail latency.
func (sv *serverHost) scheduleWaves(waves int, every sim.Time, floor int64) {
	for k := 1; k <= waves; k++ {
		sv.host.Eng.After(sim.Time(k)*every, sv.squeeze(floor))
	}
}

func (sv *serverHost) squeeze(floor int64) func() {
	return func() {
		sv.waves++
		for _, st := range sv.tenants {
			if st == nil {
				continue
			}
			limit := st.group.Limit * 3 / 4
			if limit < floor {
				limit = floor
			}
			if limit >= st.group.Limit {
				continue
			}
			cost, _ := st.group.SetLimit(limit)
			sv.reclaimCost += cost
		}
	}
}
