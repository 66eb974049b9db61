package apps

import (
	"npf/internal/core"
	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

// RegMode selects the §6.2 memory-registration strategy of the MPI
// middleware.
type RegMode int

const (
	// RegCopy stages messages through pre-pinned bounce buffers, paying a
	// CPU copy at each end.
	RegCopy RegMode = iota
	// RegPin uses a pin-down cache (the state-of-the-art heuristic in the
	// paper's MPI backend).
	RegPin
	// RegODP registers memory once with ODP and lets NPFs handle presence.
	RegODP
)

func (m RegMode) String() string {
	switch m {
	case RegCopy:
		return "copy"
	case RegPin:
		return "pin"
	case RegODP:
		return "npf"
	}
	return "invalid"
}

// MPIConfig parameterises a job.
type MPIConfig struct {
	Ranks int
	Mode  RegMode
	// OffCacheBuffers rotates each rank through this many distinct
	// send/recv buffers (IMB "off_cache" mode), defeating registration
	// reuse. 1 keeps a single hot buffer.
	OffCacheBuffers int
	// PinCacheBytes bounds each rank's pin-down cache (RegPin).
	PinCacheBytes int64
	// PerMsgOverhead is the MPI software cost per message at each end
	// (matching, tag lookup, completion handling). Applied in every mode.
	PerMsgOverhead sim.Time
}

// MPIJob is a set of ranks on a common fabric running collectives. Each
// rank owns a host, an HCA, and QPs to every other rank.
type MPIJob struct {
	Cfg   MPIConfig
	eng   *sim.Engine
	ranks []*mpiRank
	done  func()
}

type mpiRank struct {
	job    *MPIJob
	id     int
	as     *mem.AddressSpace
	dom    *iommu.Domain // the rank's protection domain, shared by its QPs
	qps    []*rc.QP      // indexed by peer rank (nil for self)
	pdc    *core.PinDownCache
	bufs   mem.VAddr // OffCacheBuffers × bufStride region
	stride int64
	bufIdx int64
}

const mpiMaxMsg = 4 << 20

// NewMPIJob builds the job: one machine per rank, full QP mesh, ODP or
// pinned registration per mode.
func NewMPIJob(eng *sim.Engine, mkHost func(rank int) (*mem.AddressSpace, *rc.HCA, *core.Driver), cfg MPIConfig) *MPIJob {
	if cfg.PerMsgOverhead == 0 {
		cfg.PerMsgOverhead = 5 * sim.Microsecond
	}
	job := &MPIJob{Cfg: cfg, eng: eng}
	type hostEnt struct {
		as  *mem.AddressSpace
		hca *rc.HCA
		drv *core.Driver
	}
	hosts := make([]hostEnt, cfg.Ranks)
	for i := range hosts {
		as, hca, drv := mkHost(i)
		hosts[i] = hostEnt{as, hca, drv}
	}
	for i := 0; i < cfg.Ranks; i++ {
		r := &mpiRank{
			job: job, id: i, as: hosts[i].as,
			dom: hosts[i].hca.MMU.NewDomain(),
			qps: make([]*rc.QP, cfg.Ranks),
		}
		r.stride = int64(mpiMaxMsg)
		r.bufs = r.as.MapBytes(int64(cfg.OffCacheBuffers) * r.stride)
		job.ranks = append(job.ranks, r)
	}
	for i := 0; i < cfg.Ranks; i++ {
		for j := i + 1; j < cfg.Ranks; j++ {
			qpI := hosts[i].hca.NewQPShared(hosts[i].as, job.ranks[i].dom)
			qpJ := hosts[j].hca.NewQPShared(hosts[j].as, job.ranks[j].dom)
			rc.Connect(qpI, qpJ)
			job.ranks[i].qps[j] = qpI
			job.ranks[j].qps[i] = qpJ
			switch cfg.Mode {
			case RegODP:
				hosts[i].drv.EnableODPQP(qpI)
				hosts[j].drv.EnableODPQP(qpJ)
			case RegCopy:
				// Bounce buffers: pin one max-message staging area per QP.
				for _, h := range []struct {
					as *mem.AddressSpace
					qp *rc.QP
				}{{hosts[i].as, qpI}, {hosts[j].as, qpJ}} {
					base := h.as.MapBytes(mpiMaxMsg)
					if _, err := h.as.Pin(base.Page(), mpiMaxMsg/mem.PageSize); err != nil {
						panic(err)
					}
					h.qp.Domain.Map(base.Page(), mpiMaxMsg/mem.PageSize)
				}
			}
		}
		if cfg.Mode == RegPin {
			// One pin-down cache per rank, registering in the rank's shared
			// protection domain.
			job.ranks[i].pdc = core.NewPinDownCache(hosts[i].as, job.ranks[i].dom, cfg.PinCacheBytes)
		}
	}
	return job
}

// sendBuf returns the rank's next message buffer (off-cache rotation).
func (r *mpiRank) sendBuf() mem.VAddr {
	buf := r.bufs + mem.VAddr(r.bufIdx%int64(r.job.Cfg.OffCacheBuffers))*mem.VAddr(r.stride)
	r.bufIdx++
	return buf
}

// prepare pays the mode's registration/staging cost for one buffer and
// calls ready when the buffer may be handed to the HCA.
func (r *mpiRank) prepare(buf mem.VAddr, length int, ready func()) {
	cost := r.job.Cfg.PerMsgOverhead
	switch r.job.Cfg.Mode {
	case RegODP:
		// Registration is free; the application must still have produced
		// the data (CPU touch), which demand-pages the buffer.
		res, err := r.as.Touch(buf, length, true)
		if err != nil {
			panic(err)
		}
		cost += res.Cost
	case RegCopy:
		res, err := r.as.Touch(buf, length, true)
		if err != nil {
			panic(err)
		}
		cost += res.Cost + mem.CopyCost(length)
	case RegPin:
		res, err := r.as.Touch(buf, length, true)
		if err != nil {
			panic(err)
		}
		pinCost, err := r.pdc.Acquire(buf, length)
		if err != nil {
			panic(err)
		}
		cost += res.Cost + pinCost
	}
	r.job.eng.After(cost, ready)
}

// recvCost is the receive-side cost paid on message arrival: MPI software
// overhead, plus the copy out of the bounce buffer under RegCopy.
func (r *mpiRank) recvCost(length int) sim.Time {
	cost := r.job.Cfg.PerMsgOverhead
	if r.job.Cfg.Mode == RegCopy {
		cost += mem.CopyCost(length)
	}
	return cost
}

// Collective runners. Each runs iters iterations of the pattern with the
// given message size and calls done(elapsed).

// RunSendRecv runs the IMB sendrecv pattern: a ring where every rank sends
// to (i+1) and receives from (i-1) each iteration.
func (job *MPIJob) RunSendRecv(msgSize, iters int, done func(elapsed sim.Time)) {
	start := job.eng.Now()
	iter := 0
	var runIter func()
	runIter = func() {
		if iter >= iters {
			done(job.eng.Now() - start)
			return
		}
		iter++
		job.barrierIter(msgSize, func(r *mpiRank) []int {
			return []int{(r.id + 1) % job.Cfg.Ranks} // send targets
		}, runIter)
	}
	runIter()
}

// RunBcast runs a flat broadcast from rank 0 (linear, as small-cluster MPI
// does for 8 ranks).
func (job *MPIJob) RunBcast(msgSize, iters int, done func(elapsed sim.Time)) {
	start := job.eng.Now()
	iter := 0
	var runIter func()
	runIter = func() {
		if iter >= iters {
			done(job.eng.Now() - start)
			return
		}
		iter++
		job.barrierIter(msgSize, func(r *mpiRank) []int {
			if r.id != 0 {
				return nil
			}
			targets := make([]int, 0, job.Cfg.Ranks-1)
			for p := 1; p < job.Cfg.Ranks; p++ {
				targets = append(targets, p)
			}
			return targets
		}, runIter)
	}
	runIter()
}

// RunAlltoall runs the all-to-all exchange: every rank sends a distinct
// message to every other rank each iteration.
func (job *MPIJob) RunAlltoall(msgSize, iters int, done func(elapsed sim.Time)) {
	start := job.eng.Now()
	iter := 0
	var runIter func()
	runIter = func() {
		if iter >= iters {
			done(job.eng.Now() - start)
			return
		}
		iter++
		job.barrierIter(msgSize, func(r *mpiRank) []int {
			targets := make([]int, 0, job.Cfg.Ranks-1)
			for p := 0; p < job.Cfg.Ranks; p++ {
				if p != r.id {
					targets = append(targets, p)
				}
			}
			return targets
		}, runIter)
	}
	runIter()
}

// barrierIter performs one communication round: each rank prepares and
// sends to its targets; the round completes when every expected message has
// been received everywhere.
func (job *MPIJob) barrierIter(msgSize int, targetsOf func(*mpiRank) []int, then func()) {
	expected := make([]int, job.Cfg.Ranks)
	totalSends := 0
	sendPlans := make([][]int, job.Cfg.Ranks)
	for _, r := range job.ranks {
		t := targetsOf(r)
		sendPlans[r.id] = t
		totalSends += len(t)
		for _, dst := range t {
			expected[dst]++
		}
	}
	remaining := totalSends
	for _, r := range job.ranks {
		rank := r
		for _, dst := range sendPlans[r.id] {
			dstRank := job.ranks[dst]
			qp := rank.qps[dst]
			peerQP := dstRank.qps[rank.id]
			// Receiver posts a buffer (receive side pays its own
			// preparation: under pin/copy modes, its buffer is registered
			// symmetrically).
			rbuf := dstRank.sendBuf()
			dstRank.prepareRecv(rbuf, msgSize, peerQP)
			peerQP.OnRecv = func(comp rc.RecvCompletion) {
				job.eng.After(dstRank.recvCost(msgSize), func() {
					remaining--
					if remaining == 0 {
						then()
					}
				})
			}
			sbuf := rank.sendBuf()
			rank.prepare(sbuf, msgSize, func() {
				qp.PostSend(rc.SendWQE{ID: 1, Laddr: sbuf, Len: msgSize})
			})
		}
	}
	if totalSends == 0 {
		then()
	}
}

// prepareRecv registers/posts a receive buffer per the mode.
func (r *mpiRank) prepareRecv(buf mem.VAddr, length int, qp *rc.QP) {
	switch r.job.Cfg.Mode {
	case RegPin:
		if _, err := r.pdc.Acquire(buf, length); err != nil {
			panic(err)
		}
	case RegCopy:
		// The wire buffer is the pre-pinned bounce buffer; model by
		// pinning the target range too (already-counted copy happens in
		// recvCost). Ensure residency so the DMA lands.
		if _, err := r.as.Pin(buf.Page(), mem.PagesSpanned(buf, length)); err != nil {
			panic(err)
		}
		r.dom.Map(buf.Page(), mem.PagesSpanned(buf, length))
	case RegODP:
		// Nothing: rNPFs handle it.
	}
	qp.PostRecv(rc.RecvWQE{ID: 1, Addr: buf, Len: length})
}
