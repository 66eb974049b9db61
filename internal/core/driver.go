// Package core is the paper's primary contribution: the IOprovider driver
// that gives NICs page-fault support ("on-demand paging", ODP).
//
// It implements:
//
//   - the NPF flow of Figure 2 (steps 1–4): the device reports missing
//     translations, the driver queries the OS (faulting pages in, possibly
//     from swap), batch-updates the device's IOMMU page tables, and tells
//     the firmware to resume;
//   - the invalidation flow (steps a–d) as an MMU notifier: before the OS
//     reuses a frame, the driver unmaps its IOVA and flushes the IOTLB;
//   - the §5 Ethernet backup-ring driver: a per-IOuser software queue and a
//     resolver that waits for ring room, faults buffers in, merges parked
//     packets, and notifies the NIC — keeping the IOuser unaware;
//   - the §4 optimizations: scatter-gather batching/prefetch and the
//     in-flight bitmap (implemented device-side);
//   - the baselines every experiment compares against: static pinning and
//     a pin-down cache (pinning.go).
package core

import (
	"errors"
	"fmt"
	"slices"

	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/trace"
)

// Config holds driver-side cost parameters and policy knobs.
type Config struct {
	// DispatchCost is interrupt-handler entry/exit overhead.
	DispatchCost sim.Time
	// PerPageLookup is the OS cost to resolve one IOVA to a physical
	// address (get_user_pages bookkeeping), on top of mem's fault costs.
	PerPageLookup sim.Time
	// CheckCost is the invalidation fast path: finding the memory region
	// and checking whether the page was ever mapped (Figure 3b "checks").
	CheckCost sim.Time
	// UpdateCost is the driver's internal-state update after an
	// invalidation (Figure 3b "updates").
	UpdateCost sim.Time
	// RetryBackoffBase is the first retry delay when a fault resolution
	// cannot complete (OOM after reclaim, or an injected resolver timeout);
	// successive retries double it up to RetryBackoffMax. Equal values give
	// the pre-backoff constant delay.
	RetryBackoffBase sim.Time
	// RetryBackoffMax caps the exponential retry delay.
	RetryBackoffMax sim.Time
	// MaxNPFRetries is the escape hatch for a resolver that keeps timing
	// out: after this many failed attempts on one fault the driver stops
	// trusting on-demand resolution and pins the pages outright (so they
	// can never fault again). 0 disables it.
	MaxNPFRetries int
}

// RetryBackoff returns the delay before retry number attempt (0-based):
// RetryBackoffBase doubled per attempt, capped at RetryBackoffMax.
func (c Config) RetryBackoff(attempt int) sim.Time {
	d := c.RetryBackoffBase
	if d <= 0 {
		d = 100 * sim.Microsecond
	}
	for i := 0; i < attempt; i++ {
		if c.RetryBackoffMax > 0 && d >= c.RetryBackoffMax {
			break
		}
		d *= 2
	}
	if c.RetryBackoffMax > 0 && d > c.RetryBackoffMax {
		d = c.RetryBackoffMax
	}
	return d
}

// ResolverInjector perturbs fault resolution — the injection point the
// chaos subsystem uses to model a slow or wedged IOprovider. Each
// resolution attempt asks it for an extra software delay; timeout true
// aborts the attempt entirely (the driver retries with exponential
// backoff, or pins the pages once the MaxNPFRetries escape hatch trips).
type ResolverInjector interface {
	ResolveDelay(attempt, pages int) (extra sim.Time, timeout bool)
}

// InvalidationInjector perturbs the MMU-notifier flow: extra is added to
// the invalidation's synchronous cost (a delayed invalidation), and
// duplicates schedules that many redundant re-deliveries of the same
// unmap — adversarial timing the Figure 2 a–d flow must tolerate.
type InvalidationInjector interface {
	OnInvalidate(first mem.PageNum, count int) (extra sim.Time, duplicates int)
}

// DefaultConfig returns values calibrated against Figure 3. Retry backoff
// defaults to the historical constant 100 µs (base == max, no growth).
func DefaultConfig() Config {
	return Config{
		DispatchCost:     4 * sim.Microsecond,
		PerPageLookup:    40 * sim.Nanosecond,
		CheckCost:        9 * sim.Microsecond,
		UpdateCost:       9 * sim.Microsecond,
		RetryBackoffBase: 100 * sim.Microsecond,
		RetryBackoffMax:  100 * sim.Microsecond,
	}
}

// Breakdown records the Figure 3a execution components of served NPFs, in
// microseconds.
type Breakdown struct {
	Trigger  sim.Histogram // (i)→(ii): firmware detects and interrupts [hw]
	DriverSW sim.Histogram // (ii)→(iii): driver + OS produce the pages [sw]
	UpdateHW sim.Histogram // (iii)→(iv): IOMMU page-table update [sw+hw]
	Resume   sim.Histogram // (iv)→(v): device resumes [hw]
	Total    sim.Histogram
}

// Merge folds every sample of other into b, component by component, so
// breakdowns gathered on seed-isolated replica engines can be combined into
// one population (the parallel sweep runner merges in replica order to keep
// results byte-identical to a serial run).
func (b *Breakdown) Merge(other *Breakdown) {
	b.Trigger.Merge(&other.Trigger)
	b.DriverSW.Merge(&other.DriverSW)
	b.UpdateHW.Merge(&other.UpdateHW)
	b.Resume.Merge(&other.Resume)
	b.Total.Merge(&other.Total)
}

func (b *Breakdown) record(trigger, driver, update, resume sim.Time) {
	b.Trigger.AddTime(trigger)
	b.DriverSW.AddTime(driver)
	b.UpdateHW.AddTime(update)
	b.Resume.AddTime(resume)
	b.Total.AddTime(trigger + driver + update + resume)
}

// InvalidationStats records the Figure 3b components.
type InvalidationStats struct {
	Total    sim.Histogram // mapped-path invalidations, µs
	FastPath sim.Counter   // invalidations of never-mapped pages
	Mapped   sim.Counter
}

// Driver is the per-host IOprovider driver. Attach devices and adapters to
// it, then enable ODP on individual channels/QPs or pin them instead.
type Driver struct {
	Eng *sim.Engine
	Cfg Config

	chans      map[*nic.Channel]*chanState
	registered map[*iommu.Domain]bool

	// Stats.
	NPFs      sim.Counter
	MajorNPFs sim.Counter
	// RxReports counts receive-fault entries delivered by devices (before
	// the resolver's dedup — the §4 in-flight bitmap bounds this).
	RxReports sim.Counter
	Hist      Breakdown
	Inv       InvalidationStats
	// ResolverTimeouts counts resolution attempts aborted by an injected
	// resolver timeout; DegradedPins counts pages pinned by the
	// MaxNPFRetries escape hatch; InvDuplicates counts injected duplicate
	// notifier deliveries.
	ResolverTimeouts sim.Counter
	DegradedPins     sim.Counter
	InvDuplicates    sim.Counter
	// OOMBackoffs counts resolution rounds that hit out-of-memory even
	// after reclaim and backed off to retry.
	OOMBackoffs sim.Counter

	// outstanding counts NPFs currently being serviced: incremented when a
	// fault first enters serveFault, decremented when its pages commit.
	// Retries (resolver timeout, OOM backoff) keep the fault outstanding.
	outstanding int

	// Fault-injection hooks (nil = no injection).
	resolver ResolverInjector
	inval    InvalidationInjector

	// Telemetry (nil-safe: a nil tracer disables everything).
	tr *trace.Tracer
}

// SetTracer publishes the driver's stats fields in the metrics registry
// (fault and invalidation counts, the mapped-invalidation latencies) and
// wires the per-stage fault records (the Figure 3a components) serveFault
// contributes. Safe to call with nil.
func (d *Driver) SetTracer(tr *trace.Tracer) {
	d.tr = tr
	tr.Counter("core.npfs", &d.NPFs)
	tr.Counter("core.major_npfs", &d.MajorNPFs)
	tr.Counter("core.rx_reports", &d.RxReports)
	tr.Counter("core.oom_backoffs", &d.OOMBackoffs)
	tr.Counter("core.inv_fastpath", &d.Inv.FastPath)
	tr.Counter("core.inv_mapped", &d.Inv.Mapped)
	tr.Counter("core.resolver_timeouts", &d.ResolverTimeouts)
	tr.Counter("core.degraded_pins", &d.DegradedPins)
	tr.Counter("core.inv_duplicates", &d.InvDuplicates)
	tr.Latency("core.inv_mapped_us", &d.Inv.Total)
	tr.Probe("core.outstanding_npfs", func() float64 {
		return float64(d.outstanding)
	})
	tr.Probe("core.backup_queue_depth", func() float64 {
		return float64(d.PendingBackupWork())
	})
}

// NewDriver creates a driver.
func NewDriver(eng *sim.Engine, cfg Config) *Driver {
	return &Driver{
		Eng:        eng,
		Cfg:        cfg,
		chans:      make(map[*nic.Channel]*chanState),
		registered: make(map[*iommu.Domain]bool),
	}
}

// SetResolverInjector installs (or, with nil, removes) the fault-injection
// hook consulted on every resolution attempt.
func (d *Driver) SetResolverInjector(ij ResolverInjector) { d.resolver = ij }

// SetInvalidationInjector installs (or, with nil, removes) the
// fault-injection hook consulted on every MMU-notifier invalidation.
func (d *Driver) SetInvalidationInjector(ij InvalidationInjector) { d.inval = ij }

// AttachDevice routes an Ethernet NIC's fault interrupts to this driver.
func (d *Driver) AttachDevice(dev *nic.Device) { dev.SetNPFSink(d) }

// AttachHCA routes an InfiniBand adapter's fault interrupts to this driver.
func (d *Driver) AttachHCA(h *rc.HCA) { h.SetFaultSink(d) }

// EnableODP registers a channel for on-demand paging: its IOMMU domain
// starts empty, faults populate it, and an MMU notifier keeps it coherent
// with the OS. This is all an IOuser needs — no pinning anywhere.
func (d *Driver) EnableODP(ch *nic.Channel) {
	d.chans[ch] = &chanState{d: d, ch: ch}
	d.registerNotifier(ch.AS, ch.Domain)
}

// EnableODPQP registers a QP for on-demand paging.
func (d *Driver) EnableODPQP(qp *rc.QP) {
	d.registerNotifier(qp.AS, qp.Domain)
}

// registerNotifier wires the invalidation flow (Figure 2 steps a–d): when
// the OS wants a frame back, unmap it from the device and flush the IOTLB
// before the OS reuses it. Domains shared by several QPs (one protection
// domain, the verbs model) register once.
func (d *Driver) registerNotifier(as *mem.AddressSpace, dom *iommu.Domain) {
	if d.registered[dom] {
		return
	}
	d.registered[dom] = true
	as.RegisterNotifier(mem.NotifierFunc(func(first mem.PageNum, count int) sim.Time {
		cost := d.Cfg.CheckCost
		if d.inval != nil {
			// Injected notifier chaos: extra stretches this invalidation's
			// synchronous cost (a delayed invalidation, stalling the evictor),
			// and duplicates schedules redundant re-deliveries of the same
			// unmap at spaced delays — the adversarial reordering the
			// Figure 2 a–d flow must tolerate.
			extra, dups := d.inval.OnInvalidate(first, count)
			cost += extra
			for i := 1; i <= dups; i++ {
				delay := cost + sim.Time(i)*(d.Cfg.CheckCost+d.Cfg.UpdateCost)
				d.Eng.After(delay, func() { d.replayInvalidate(dom, first, count) })
			}
		}
		unmapCost, removed := dom.Unmap(first, count)
		if removed == 0 {
			// Lazily mapped pages are often absent (Figure 3b fast path).
			d.Inv.FastPath.Inc()
			return cost
		}
		d.Inv.Mapped.Inc()
		cost += unmapCost + d.Cfg.UpdateCost
		d.Inv.Total.AddTime(cost)
		d.tr.FaultContext(trace.FSInvalidate, d.Eng.Now(), cost, int64(first), int64(removed), int32(count))
		return cost
	}))
}

// replayInvalidate re-runs an unmap the injector duplicated. Either the
// translations are already gone (fast path — the common case) or a refault
// raced them back in, in which case the replay removes fresh translations
// and the device refaults on next access: benign by design, exactly the
// coherence property duplicated notifier deliveries are meant to stress.
func (d *Driver) replayInvalidate(dom *iommu.Domain, first mem.PageNum, count int) {
	d.InvDuplicates.Inc()
	_, removed := dom.Unmap(first, count)
	d.tr.FaultContext(trace.FSInvalidate, d.Eng.Now(), d.Cfg.CheckCost, int64(first), -int64(removed)-1, int32(count))
}

// faultPrep performs Figure 2 step 3: the OS faults the missing pages in
// (batched) and resolves their physical addresses. It mutates OS memory
// state immediately and returns the software cost (osCost is the OS
// fault-in portion of it, separated for telemetry); the device-visible
// IOMMU update is a separate commit phase (faultCommit) that callers
// schedule after the software cost has elapsed — the device must not see
// the new translations before the driver has actually produced them.
func (d *Driver) faultPrep(as *mem.AddressSpace, pages []mem.PageNum, write bool) (swCost, osCost sim.Time, major bool, err error) {
	swCost = d.Cfg.DispatchCost + sim.Time(len(pages))*d.Cfg.PerPageLookup
	if len(pages) == 0 {
		return swCost, 0, false, nil
	}
	// Domain.TranslateAccess reports misses in ascending order, so the copy
	// is only for callers that hand over pages in another order.
	sorted := pages
	if !slices.IsSorted(sorted) {
		sorted = slices.Clone(pages)
		slices.Sort(sorted)
	}
	run := 1
	for i := 1; i <= len(sorted); i++ {
		if i < len(sorted) && sorted[i] == sorted[i-1]+1 {
			run++
			continue
		}
		res, ferr := as.FaultInRange(sorted[i-run], run, write)
		if ferr != nil {
			return swCost, osCost, major, ferr
		}
		swCost += res.Cost
		osCost += res.Cost
		if res.Major > 0 {
			major = true
		}
		run = 1
	}
	d.NPFs.Inc()
	if major {
		d.MajorNPFs.Inc()
	}
	return swCost, osCost, major, nil
}

// faultCommit performs Figure 2 step 4: batch-install the translations.
// Pages reclaimed while the driver was working are skipped (their
// invalidation already ran; the device will fault again if it needs them).
func (d *Driver) faultCommit(as *mem.AddressSpace, dom *iommu.Domain, pages []mem.PageNum, write bool) sim.Time {
	live := pages[:0]
	for _, pn := range pages {
		if as.Resident(pn) {
			live = append(live, pn)
		}
	}
	return dom.MapBatchPerm(live, write)
}

// serveFault runs the full Figure 2 NPF flow for one fault event and calls
// done once the device may resume. extraCost is added to the software phase
// (e.g. the backup resolver's packet copy). fid is the device-minted fault
// whose record each stage accrues to. attempt counts prior failed
// resolutions of this same fault (0 on first service); it drives the
// exponential retry backoff and the MaxNPFRetries escape hatch.
func (d *Driver) serveFault(as *mem.AddressSpace, dom *iommu.Domain, pages []mem.PageNum,
	write bool, start sim.Time, resumeCost, extraCost sim.Time,
	fid trace.FaultID, attempt int, done func(), retry func()) {
	now := d.Eng.Now()
	trigger := now - start
	if attempt == 0 {
		d.outstanding++
		// The fault-report stage of the causal record: device detection to
		// driver service start (firmware + interrupt + report-queue wait).
		d.tr.FaultStageAt(fid, trace.FSReport, start, trigger, int64(len(pages)), 0)
	}
	// Escape hatch: after MaxNPFRetries failed attempts the driver stops
	// trusting on-demand resolution for this fault — it bypasses the
	// (possibly wedged) resolver injection point and pins the pages during
	// this service so they can never fault again.
	degraded := d.Cfg.MaxNPFRetries > 0 && attempt >= d.Cfg.MaxNPFRetries
	if d.resolver != nil && !degraded {
		extra, timeout := d.resolver.ResolveDelay(attempt, len(pages))
		if timeout {
			// The resolver wedged: abort this attempt and retry with
			// exponential backoff. The device keeps the operation
			// suspended/parked meanwhile.
			d.ResolverTimeouts.Inc()
			delay := d.Cfg.DispatchCost + extra + d.Cfg.RetryBackoff(attempt)
			d.tr.FaultStageAt(fid, trace.FSResolverTimeout, now, delay, int64(attempt), int64(len(pages)))
			d.Eng.After(delay, retry)
			return
		}
		extraCost += extra
	}
	sw, osCost, major, err := d.faultPrep(as, pages, write)
	sw += extraCost
	if err != nil {
		if !errors.Is(err, mem.ErrOutOfMemory) {
			// A DMA to an unregistered/unmapped address is a protection
			// error, not a transient condition: fail loudly.
			panic(fmt.Sprintf("core: unresolvable NPF on %s: %v", as.Name, err))
		}
		// OOM even after reclaim: back off and retry; the device keeps the
		// operation suspended/parked meanwhile.
		d.OOMBackoffs.Inc()
		backoff := d.Cfg.RetryBackoff(attempt)
		d.tr.FaultStageAt(fid, trace.FSOOMBackoff, now, sw+backoff, int64(attempt), int64(len(pages)))
		d.Eng.After(sw+backoff, retry)
		return
	}
	mjr := int64(0)
	if major {
		mjr = 1
	}
	d.tr.FaultStageAt(fid, trace.FSDriver, now, sw, int64(len(pages)), mjr)
	if osCost > 0 {
		d.tr.FaultStageAt(fid, trace.FSPageResolve, now+sw-extraCost-osCost, osCost, mjr, 0)
	}
	if extraCost > 0 {
		d.tr.FaultStageAt(fid, trace.FSCopy, now+sw-extraCost, extraCost, 0, 0)
	}
	if degraded && len(pages) > 0 {
		// The pages are resident now; pin them (best effort, stopping at the
		// memlock limit) so this fault cannot recur. The pin cost extends the
		// software phase.
		var pinCost sim.Time
		var pinned int
		for _, pn := range pages {
			if as.Pinned(pn) {
				continue
			}
			res, perr := as.Pin(pn, 1)
			if perr != nil {
				break
			}
			pinCost += res.Cost
			pinned++
		}
		if pinned > 0 {
			d.DegradedPins.Add(uint64(pinned))
			d.tr.FaultStageAt(fid, trace.FSDegradePin, now+sw, pinCost, int64(pinned), int64(attempt))
			sw += pinCost
		}
	}
	d.Eng.After(sw, func() {
		d.outstanding--
		hw := d.faultCommit(as, dom, pages, write)
		d.Hist.record(trigger, sw, hw, resumeCost)
		n2 := d.Eng.Now()
		d.tr.FaultStageAt(fid, trace.FSUpdate, n2, hw, int64(len(pages)), 0)
		if resumeCost > 0 {
			d.tr.FaultStageAt(fid, trace.FSResume, n2+hw, resumeCost, 0, 0)
		}
		d.Eng.After(hw, done)
	})
}

// ---------------------------------------------------------------------------
// rc.FaultSink: InfiniBand NPFs (Figure 2 flow, §4).

// HandleQPFault implements rc.FaultSink. Faults on paths where the device
// will WRITE memory (placing incoming sends/writes or read-response data)
// resolve with write intent, like get_user_pages(write); the rest map
// read-only (DESIGN X2).
func (d *Driver) HandleQPFault(ev rc.QPFault) { d.handleQPFault(ev, 0) }

func (d *Driver) handleQPFault(ev rc.QPFault, attempt int) {
	write := ev.Class == rc.FaultRecvRNPF || ev.Class == rc.FaultReadInitiator
	resume := ev.QP.HCA().Cfg.FirmwareResume
	done := ev.Resolved
	if d.tr.Enabled() {
		// Close the causal record when the adapter's resume completes (the
		// commit callback runs resume-cost earlier than the QP unblocks).
		done = func() {
			d.tr.FaultDone(ev.Fault, d.Eng.Now()+resume)
			ev.Resolved()
		}
	}
	d.serveFault(ev.QP.AS, ev.QP.Domain, ev.Missing, write, ev.Start,
		resume, 0, ev.Fault, attempt,
		done,
		func() { d.handleQPFault(ev, attempt+1) })
}

// ---------------------------------------------------------------------------
// nic.NPFSink: Ethernet NPFs (§5).

// HandleTxNPF implements nic.NPFSink for send-side faults.
func (d *Driver) HandleTxNPF(ev nic.TxNPF) { d.handleTxNPF(ev, 0) }

func (d *Driver) handleTxNPF(ev nic.TxNPF, attempt int) {
	resume := ev.Channel.Dev.Cfg.FirmwareResume
	done := ev.Resume
	if d.tr.Enabled() {
		done = func() {
			d.tr.FaultDone(ev.Fault, d.Eng.Now()+resume)
			ev.Resume()
		}
	}
	d.serveFault(ev.Channel.AS, ev.Channel.Domain, ev.Missing, false, ev.Start,
		resume, 0, ev.Fault, attempt,
		done,
		func() { d.handleTxNPF(ev, attempt+1) })
}

// HandleRxNPF implements nic.NPFSink for receive faults: drop-policy
// demand-paging reports and backup-ring entries, demuxed per channel.
func (d *Driver) HandleRxNPF(entries []nic.RxNPFEntry) {
	d.RxReports.Add(uint64(len(entries)))
	for _, e := range entries {
		st, ok := d.chans[e.Channel]
		if !ok {
			panic("core: rNPF on channel without ODP enabled: " + e.Channel.Name)
		}
		st.q.Push(pendingRx{e: e})
	}
	for _, e := range entries {
		d.chans[e.Channel].pump()
	}
}

// PendingBackupWork reports how many receive-fault entries are queued or in
// service across every ODP channel's backup resolver — zero means no parked
// packet is awaiting resolution (the "no stuck rings" chaos invariant).
func (d *Driver) PendingBackupWork() int {
	n := 0
	//npf:orderinvariant — counting queued work is commutative
	for _, st := range d.chans {
		n += st.q.Len() // the entry in service stays queued until it resolves
	}
	return n
}
