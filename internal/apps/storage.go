package apps

import (
	"errors"
	"fmt"

	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

// ErrPinnedTooLarge is returned when the pinned storage configuration
// exceeds the administrator's locked-memory budget — the "fails to load the
// tgt service" outcome of Figure 8a's small-memory points.
var ErrPinnedTooLarge = errors.New("storage: pinned communication buffers exceed locked-memory budget")

// CmdRead is the iSER-style read command (initiator → target, RC send).
type CmdRead struct {
	ID    int64
	Block int64
	Len   int
	Raddr mem.VAddr // initiator buffer the target RDMA-writes into
}

// RspRead is the completion response (target → initiator, RC send).
type RspRead struct{ ID int64 }

// maxLockedFraction is the admin bound on pinned memory as a fraction of
// RAM (ulimit -l policy).
const maxLockedFraction float64 = 0.20

// StorageTargetConfig parameterises the tgt-style target.
type StorageTargetConfig struct {
	// CommBufBytes is the communication buffer region (tgt default: 1 GB).
	CommBufBytes int64
	// SlotBytes is the fixed chunk allocated per transaction regardless of
	// its actual size (tgt: 512 KB).
	SlotBytes int64
	// SlotsPerSession is how many slots each session rotates through.
	SlotsPerSession int
	// Pinned pins the whole communication region at startup; otherwise the
	// region relies on NPFs.
	Pinned bool
	// ServiceTime is CPU cost per request outside memory and disk.
	ServiceTime sim.Time
}

// DefaultStorageTargetConfig mirrors the paper's tgt setup.
func DefaultStorageTargetConfig() StorageTargetConfig {
	return StorageTargetConfig{
		CommBufBytes:    1 << 30,
		SlotBytes:       512 << 10,
		SlotsPerSession: 32,
		ServiceTime:     20 * sim.Microsecond,
	}
}

// StorageTarget is the tgt-like iSER target: it serves random reads from a
// LUN through the OS page cache, staging data in its communication buffers
// before RDMA-writing it to the initiator.
type StorageTarget struct {
	Cfg   StorageTargetConfig
	AS    *mem.AddressSpace
	Cache *mem.PageCache
	eng   *sim.Engine

	commBase mem.VAddr
	slots    int64
	nextSlot int64
	diskBusy sim.Time

	Requests sim.Counter
	// MemcpyBps is the staging copy bandwidth (page cache → comm buffer).
	MemcpyBps int64
}

// NewStorageTarget builds the target on as, caching lun through cache.
// With cfg.Pinned it pins the communication region immediately and may fail
// per the locked-memory budget.
func NewStorageTarget(as *mem.AddressSpace, cache *mem.PageCache, cfg StorageTargetConfig) (*StorageTarget, error) {
	t := &StorageTarget{
		Cfg:       cfg,
		AS:        as,
		Cache:     cache,
		eng:       as.Machine().Eng,
		slots:     cfg.CommBufBytes / cfg.SlotBytes,
		MemcpyBps: 10e9,
	}
	t.commBase = as.MapBytes(cfg.CommBufBytes)
	if cfg.Pinned {
		if float64(cfg.CommBufBytes) > maxLockedFraction*float64(as.Machine().RAM.Limit) {
			return nil, fmt.Errorf("%w: %d bytes > %.0f%% of %d RAM",
				ErrPinnedTooLarge, cfg.CommBufBytes,
				maxLockedFraction*100, as.Machine().RAM.Limit)
		}
		pages := int(cfg.CommBufBytes / mem.PageSize)
		if _, err := as.Pin(t.commBase.Page(), pages); err != nil {
			return nil, fmt.Errorf("storage: pinning comm buffers: %w", err)
		}
	}
	return t, nil
}

// CommBufResident reports the communication region's resident bytes — the
// metric of Figure 8b.
func (t *StorageTarget) CommBufResident() int64 {
	base := t.commBase.Page()
	pages := int(t.Cfg.CommBufBytes / mem.PageSize)
	resident := int64(0)
	for i := 0; i < pages; i++ {
		if t.AS.Resident(base + mem.PageNum(i)) {
			resident += mem.PageSize
		}
	}
	return resident
}

// AddSession wires one initiator session's QP to the target. If the target
// is pinned, the session's slot range is mapped in the QP's domain here
// (static registration); under ODP the driver handles it via NPFs.
func (t *StorageTarget) AddSession(qp *rc.QP) {
	firstSlot := t.nextSlot
	t.nextSlot += int64(t.Cfg.SlotsPerSession)
	sess := &storageSession{t: t, qp: qp, firstSlot: firstSlot}
	if t.Cfg.Pinned {
		base := (t.commBase + mem.VAddr(firstSlot%t.slots*t.Cfg.SlotBytes)).Page()
		pages := int(int64(t.Cfg.SlotsPerSession) * t.Cfg.SlotBytes / mem.PageSize)
		qp.Domain.Map(base, pages)
	}
	qp.OnRecv = sess.handleCmd
	// Post a standing pool of tiny receive buffers for commands.
	cmdBase := t.AS.MapBytes(64 * mem.PageSize)
	if _, err := t.AS.Pin(cmdBase.Page(), 64); err != nil {
		panic(err)
	}
	qp.Domain.Map(cmdBase.Page(), 64)
	for i := 0; i < 64; i++ {
		qp.PostRecv(rc.RecvWQE{ID: int64(i), Addr: cmdBase + mem.VAddr(i)*mem.PageSize, Len: 256})
	}
	sess.cmdBase = cmdBase
}

type storageSession struct {
	t         *StorageTarget
	qp        *rc.QP
	firstSlot int64
	slotIdx   int64
	cmdBase   mem.VAddr
}

func (s *storageSession) handleCmd(comp rc.RecvCompletion) {
	cmd := comp.Payload.(*CmdRead)
	t := s.t
	t.Requests.Inc()
	// Repost the command buffer.
	s.qp.PostRecv(rc.RecvWQE{ID: comp.WQEID, Addr: s.cmdBase + mem.VAddr(comp.WQEID)*mem.PageSize, Len: 256})

	// 1. Read the LUN blocks through the page cache; disk misses serialize
	// on the single spindle.
	cost := t.Cfg.ServiceTime
	blocks := (int64(cmd.Len) + t.Cache.BlockSize - 1) / t.Cache.BlockSize
	for b := int64(0); b < blocks; b++ {
		c, hit := t.Cache.Read(cmd.Block + b)
		if !hit && c > 0 {
			done := t.diskBusy
			if now := t.eng.Now(); done < now {
				done = now
			}
			done += c
			t.diskBusy = done
			c = done - t.eng.Now()
		}
		if c > cost {
			cost = c // overlapping CPU with I/O: pay the max
		}
	}

	// 2. Stage into this session's next comm-buffer slot (a fixed
	// SlotBytes chunk regardless of cmd.Len). The CPU copy demand-pages
	// the slot under ODP.
	slot := t.commBase + mem.VAddr((s.firstSlot+s.slotIdx%int64(t.Cfg.SlotsPerSession))%t.slots*t.Cfg.SlotBytes)
	s.slotIdx++
	res, err := t.AS.Touch(slot, cmd.Len, true)
	if err != nil {
		panic(fmt.Sprintf("storage: staging touch: %v", err))
	}
	cost += res.Cost + sim.Time(int64(cmd.Len)*int64(sim.Second)/t.MemcpyBps)

	// 3. RDMA-write the data to the initiator, then send the response.
	t.eng.After(cost, func() {
		s.qp.PostSend(rc.SendWQE{
			ID: cmd.ID, Laddr: slot, Len: cmd.Len,
			Write: true, Raddr: cmd.Raddr,
		})
		s.qp.PostSend(rc.SendWQE{
			ID: -cmd.ID, Laddr: s.cmdBase, Len: 64,
			Payload: &RspRead{ID: cmd.ID},
		})
	})
}

// FioConfig parameterises the initiator.
type FioConfig struct {
	BlockSize int
	IODepth   int
	LUNBytes  int64
	// TargetBytes stops after reading this much (0: read until the run ends).
	TargetBytes int64
}

// FioInitiator issues random reads over one session (QP), keeping IODepth
// requests outstanding — the fio driver of §6.1.
type FioInitiator struct {
	Cfg FioConfig
	qp  *rc.QP
	as  *mem.AddressSpace
	eng *sim.Engine
	rng *sim.Rand

	bufBase mem.VAddr
	nextID  int64

	Bytes   sim.Counter
	Reads   sim.Counter
	DoneAt  sim.Time
	started sim.Time
}

// NewFioInitiator builds an initiator whose buffers are pinned (the paper
// uses an unmodified kernel iSER initiator; the target is the system under
// test).
func NewFioInitiator(qp *rc.QP, as *mem.AddressSpace, cfg FioConfig) *FioInitiator {
	eng := as.Machine().Eng
	f := &FioInitiator{Cfg: cfg, qp: qp, as: as, eng: eng, rng: eng.Rand().Split()}
	bufBytes := int64(cfg.IODepth) * int64(cfg.BlockSize)
	f.bufBase = as.MapBytes(bufBytes)
	if _, err := as.Pin(f.bufBase.Page(), int(bufBytes/mem.PageSize)); err != nil {
		panic(err)
	}
	qp.Domain.Map(f.bufBase.Page(), int(bufBytes/mem.PageSize))
	// Pinned response buffers.
	rspBase := as.MapBytes(64 * mem.PageSize)
	if _, err := as.Pin(rspBase.Page(), 64); err != nil {
		panic(err)
	}
	qp.Domain.Map(rspBase.Page(), 64)
	for i := 0; i < 64; i++ {
		qp.PostRecv(rc.RecvWQE{ID: int64(i), Addr: rspBase + mem.VAddr(i)*mem.PageSize, Len: 256})
	}
	qp.OnRecv = func(comp rc.RecvCompletion) {
		qp.PostRecv(rc.RecvWQE{ID: comp.WQEID, Addr: rspBase + mem.VAddr(comp.WQEID)*mem.PageSize, Len: 256})
		f.Bytes.Add(uint64(cfg.BlockSize))
		f.Reads.Inc()
		if cfg.TargetBytes > 0 && int64(f.Bytes.N) >= cfg.TargetBytes {
			if f.DoneAt == 0 {
				f.DoneAt = eng.Now()
			}
			return
		}
		f.issue()
	}
	return f
}

// Start begins issuing IODepth outstanding reads.
func (f *FioInitiator) Start() {
	f.started = f.eng.Now()
	for i := 0; i < f.Cfg.IODepth; i++ {
		f.issue()
	}
}

// BandwidthGBps reports achieved bandwidth since Start.
func (f *FioInitiator) BandwidthGBps(now sim.Time) float64 {
	end := f.DoneAt
	if end == 0 {
		end = now
	}
	if end <= f.started {
		return 0
	}
	return float64(f.Bytes.N) / (end - f.started).Seconds() / 1e9
}

func (f *FioInitiator) issue() {
	f.nextID++
	id := f.nextID
	blocks := f.Cfg.LUNBytes / int64(f.Cfg.BlockSize)
	slot := f.bufBase + mem.VAddr(int(id)%f.Cfg.IODepth*f.Cfg.BlockSize)
	f.qp.PostSend(rc.SendWQE{
		ID: id, Laddr: f.bufBase, Len: 96,
		Payload: &CmdRead{ID: id, Block: f.rng.Int63n(blocks), Len: f.Cfg.BlockSize, Raddr: slot},
	})
}
