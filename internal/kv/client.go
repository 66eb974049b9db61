package kv

import (
	"npf/internal/sim"
	"npf/internal/workload"
)

// WorkloadConfig sizes one tenant's load generator. It is an alias of the
// shared workload.Config: kv and the scale-out sweep (internal/topo) draw
// from one generator implementation, and a config built for one layer works
// verbatim in the other. Field semantics and defaults are unchanged from
// the historical kv-private struct; Keys defaults to Config.ExpectedKeys.
type WorkloadConfig = workload.Config

// Workload is one tenant's load generator plus its latency accounting.
type Workload struct {
	svc *Service
	Cfg WorkloadConfig

	// Lat holds per-op latencies in microseconds (front-cache hits
	// included: they are real client-observed latencies).
	Lat sim.Histogram

	Gets      sim.Counter
	Sets      sim.Counter
	Hits      sim.Counter // get replies that found the key
	FrontHits sim.Counter // gets served by the host-level front cache
	Retries   sim.Counter
	ShedSeen  sim.Counter // set replies reporting shed load

	// DoneAt is the virtual time the last op completed (0 while running).
	DoneAt sim.Time
	// OnDone fires once when the workload completes.
	OnDone func()

	clients []*wlClient
	pending map[uint64]*pendingReq
	// freeReqs recycles pendingReqs after complete (client-partition
	// state, like every Workload field).
	freeReqs []*pendingReq
	// w.retry and w.frontHit, bound once.
	retryFn, frontHitFn func(any)
	issued              int
	// completed counts finished ops; the tracer publishes it as kv.ops.
	completed sim.Counter
	started   bool
}

type wlClient struct {
	wl    *Workload
	id    int
	host  *HostNode
	rng   sim.Rand // the client's split stream; draws read wl.Cfg
	quota int      // ops this client still has to issue
}

type pendingReq struct {
	id       uint64 // key in Workload.pending
	c        *wlClient
	key      string
	shard    int
	size     int
	isGet    bool
	start    sim.Time
	timer    sim.EventID
	attempts int
}

// maxLatReserve caps a workload's latency reservation at 8 MiB. A larger
// TargetOps stands for a run that ends on time, not on its count
// (TestKVWarmOpsAllocBound's 1<<30), and its reservoir grows as it records.
const maxLatReserve = 1 << 20

// NewWorkload attaches a tenant workload to the service. Client RNGs are
// split from the engine in construction order, so results are independent
// of when (or whether) other tenants run their ops.
func (s *Service) NewWorkload(cfg WorkloadConfig) *Workload {
	cfg = cfg.WithDefaults(s.Cfg.ExpectedKeys)
	w := &Workload{svc: s, Cfg: cfg, pending: make(map[uint64]*pendingReq)}
	w.retryFn, w.frontHitFn = w.retry, w.frontHit
	// An op records at most one latency, so TargetOps bounds the samples.
	w.Lat.Grow(min(cfg.TargetOps, maxLatReserve))
	per := cfg.TargetOps / cfg.Clients
	extra := cfg.TargetOps % cfg.Clients
	clientHosts := s.Hosts[s.Cfg.ServerHosts:]
	for i := 0; i < cfg.Clients; i++ {
		q := per
		if i < extra {
			q++
		}
		h := clientHosts[i%len(clientHosts)]
		if cfg.FrontCacheEntries > 0 {
			h.frontCache.setCapacity(cfg.FrontCacheEntries)
		}
		w.clients = append(w.clients, &wlClient{
			wl: w, id: i, host: h,
			rng:   *s.Eng.Rand().Split(),
			quota: q,
		})
	}
	// Latency and completion probes are client-tier state: they belong to
	// the client tracer (the server tracer on a single-engine service).
	tr := s.TracerC
	tenant := cfg.Tenant
	// The Percentile probes touch the histogram's lazy sort cache — an
	// in-place, order-insensitive reordering that runs at deterministic
	// sampler ticks, so same-seed runs stay byte-identical.
	//npf:probepure — Histogram.Percentile's lazy sort is an internal cache, not observable state
	tr.Probe("kv."+tenant+".p50_us", func() float64 { return w.Lat.Percentile(50) })
	//npf:probepure — Histogram.Percentile's lazy sort is an internal cache, not observable state
	tr.Probe("kv."+tenant+".p99_us", func() float64 { return w.Lat.Percentile(99) })
	//npf:probepure — Histogram.Percentile's lazy sort is an internal cache, not observable state
	tr.Probe("kv."+tenant+".p999_us", func() float64 { return w.Lat.Percentile(99.9) })
	tr.Probe("kv."+tenant+".completed", func() float64 { return float64(w.completed.N) })
	tr.Counter("kv.ops", &w.completed)
	tr.Counter("kv.frontcache_hits", &w.FrontHits)
	tr.Counter("kv.retries", &w.Retries)
	s.workloads = append(s.workloads, w)
	return w
}

// Start begins issuing load at the current virtual time (after an optional
// prepopulation pass) and arms the service control plane.
func (w *Workload) Start() {
	if w.started {
		return
	}
	w.started = true
	w.svc.Start()
	if w.Cfg.Prepopulate {
		w.prepopulate()
	}
	for _, c := range w.clients {
		c := c
		if w.Cfg.OpenLoop {
			w.svc.cliEng.AfterArg(c.nextArrival(), arriveEvent, c)
		} else if c.quota > 0 {
			// Deterministic small stagger so clients do not issue in
			// lockstep on the first tick.
			w.svc.cliEng.After(sim.Time(c.id+1)*3*sim.Microsecond, func() { c.issue() })
		}
	}
}

// prepopulate bulk-loads every key into its shard's replicas directly (a
// control-plane bootstrap: no network traffic, memory state applied
// immediately so arenas start resident and warm).
func (w *Workload) prepopulate() {
	s := w.svc
	for k := 0; k < w.Cfg.Keys; k++ {
		key := s.keys.Name(k)
		shard := s.place.ShardOfKey(key)
		for _, r := range s.shards[shard] {
			if _, ok := r.applySet(key, valueBytes); ok && r.primary {
				r.seq++
				r.logAppend(key, valueBytes)
			}
		}
		// Backups adopt the primary's sequence (they applied the same ops).
		var seq uint64
		for _, r := range s.shards[shard] {
			if r.primary {
				seq = r.seq
			}
		}
		for _, r := range s.shards[shard] {
			if !r.primary {
				r.seq = seq
			}
		}
	}
}

// nextArrival draws the open-loop inter-arrival gap at the configured
// constant rate.
func (c *wlClient) nextArrival() sim.Time {
	return c.wl.Cfg.NextArrival(&c.rng)
}

// arriveEvent is the open-loop tick of client arg: issue (regardless of
// completions) and re-arm until the quota is spent. It is a plain
// function, so arming it creates no closure.
func arriveEvent(arg any) {
	c := arg.(*wlClient)
	if c.quota <= 0 {
		return
	}
	c.issue()
	if c.quota > 0 {
		c.wl.svc.cliEng.AfterArg(c.nextArrival(), arriveEvent, c)
	}
}

// issue sends one op drawn from the workload mix.
func (c *wlClient) issue() {
	w := c.wl
	s := w.svc
	c.quota--
	w.issued++
	isGet, keyIdx := c.wl.Cfg.NextOp(&c.rng)
	key := s.keys.Name(keyIdx)
	shard := s.place.ShardOfKey(key)
	s.nextReq++
	id := s.nextReq
	req := w.takeReq()
	*req = pendingReq{
		id: id, c: c, key: key, shard: shard, isGet: isGet,
		size:  valueBytes,
		start: s.cliEng.Now(),
	}
	w.pending[id] = req

	if isGet {
		w.Gets.Inc()
		if c.host.frontCache.get(key) {
			// Hot-key hit at the client tier: complete locally.
			w.FrontHits.Inc()
			s.cliEng.AfterArg(frontCacheCost, w.frontHitFn, req)
			return
		}
	} else {
		w.Sets.Inc()
		c.host.frontCache.invalidate(key)
	}
	w.sendReq(req)
}

// frontCacheCost is the client-local cost of a front-cache hit.
const frontCacheCost = 500 * sim.Nanosecond

// frontHit completes a get the front cache served, once frontCacheCost
// has passed. It is bound once as w.frontHitFn.
func (w *Workload) frontHit(arg any) {
	req := arg.(*pendingReq)
	if w.pending[req.id] != req {
		return
	}
	delete(w.pending, req.id)
	w.Hits.Inc()
	w.complete(req)
}

// takeReq returns a pendingReq from the workload's free list, allocating
// only when the list is empty; the caller assigns every field.
//
//npf:noalloc
func (w *Workload) takeReq() *pendingReq {
	n := len(w.freeReqs)
	if n == 0 {
		return new(pendingReq) //npf:allocok — list refill, up to the workload's ops in flight
	}
	req := w.freeReqs[n-1]
	w.freeReqs[n-1] = nil
	w.freeReqs = w.freeReqs[:n-1]
	return req
}

// sendReq (re)sends a pending op to the shard's current primary in a
// message from the client host's free list, and arms the retry timer.
//
//npf:noalloc
func (w *Workload) sendReq(req *pendingReq) {
	s := w.svc
	req.attempts++
	kind := rpcGet
	wire := rpcHeader
	if !req.isGet {
		kind = rpcSet
		wire += req.size
	}
	m := req.c.host.takeMsg()
	*m = rpcMsg{
		Kind: kind, Shard: req.shard, Key: req.key, Size: req.size,
		ReqID: req.id, Client: req.c.id,
	}
	s.send(req.c.host, s.cliPrimary[req.shard], wire, m)
	req.timer = s.cliEng.AfterArg(w.Cfg.RequestTimeout, w.retryFn, req) //npf:allocok — a *pendingReq is pointer-shaped; boxing it does not allocate
}

// retry is the retry timer of a pending op, bound once as w.retryFn: it
// resends the op unless it has completed since.
//
//npf:noalloc
func (w *Workload) retry(arg any) {
	req := arg.(*pendingReq)
	if w.pending[req.id] != req {
		return
	}
	w.Retries.Inc()
	w.sendReq(req) // placement is re-read: a failover reroutes us
}

// deliverReply routes a reply arriving at client host h, then recycles
// it: the reply is a request h sent, come back. A late or unmatched reply
// is recycled too.
func (s *Service) deliverReply(h *HostNode, m *rpcMsg) {
	for _, w := range s.workloads {
		if req, ok := w.pending[m.ReqID]; ok && req.c.host == h {
			w.handleReply(req, m)
			break
		}
	}
	h.freeMsg(m)
}

func (w *Workload) handleReply(req *pendingReq, m *rpcMsg) {
	s := w.svc
	if m.Redirect && req.attempts < 64 {
		// The replica we asked is no longer primary. Retry immediately
		// against the current placement table.
		s.cliEng.Cancel(req.timer)
		w.sendReq(req)
		return
	}
	s.cliEng.Cancel(req.timer)
	delete(w.pending, req.id)
	if req.isGet {
		if m.Hit {
			w.Hits.Inc()
			req.c.host.frontCache.add(req.key)
		}
	} else if !m.OK {
		w.ShedSeen.Inc()
	}
	w.complete(req)
}

// complete records one finished op, recycles its pendingReq and fires
// issue/done transitions.
func (w *Workload) complete(req *pendingReq) {
	s := w.svc
	c := req.c
	w.Lat.AddTime(s.cliEng.Now() - req.start)
	w.freeReqs = append(w.freeReqs, req)
	w.completed.Inc()
	if w.completed.N == uint64(w.Cfg.TargetOps) {
		w.DoneAt = s.cliEng.Now()
		if w.OnDone != nil {
			w.OnDone()
		}
		return
	}
	if !w.Cfg.OpenLoop && c.quota > 0 {
		c.issue()
	}
}

// Completed reports ops finished so far.
func (w *Workload) Completed() int { return int(w.completed.N) }

// ---------------------------------------------------------------------------
// Host-level hot-key front cache: a bounded LRU of keys recently fetched
// by any client on the host. Only presence is cached (values are not
// modelled); a hit completes the get at the client tier. Sets by local
// clients invalidate; remote writers leave entries stale until they age
// out — the documented coherence tradeoff of look-aside front caches.

type frontCache struct {
	cap   int
	items map[string]int   // key -> stamp
	order sim.Ring[string] // insertion order for eviction
	clock int
}

func newFrontCache(capacity int) *frontCache {
	return &frontCache{cap: capacity, items: make(map[string]int)}
}

func (f *frontCache) setCapacity(capacity int) {
	if capacity > f.cap {
		f.cap = capacity
	}
}

func (f *frontCache) get(key string) bool {
	if f.cap <= 0 {
		return false
	}
	_, ok := f.items[key]
	return ok
}

func (f *frontCache) add(key string) {
	if f.cap <= 0 {
		return
	}
	if _, ok := f.items[key]; ok {
		return
	}
	f.clock++
	f.items[key] = f.clock
	f.order.Push(key)
	for len(f.items) > f.cap && f.order.Len() > 0 {
		victim := f.order.Pop()
		if _, ok := f.items[victim]; ok {
			delete(f.items, victim)
		}
	}
}

func (f *frontCache) invalidate(key string) {
	delete(f.items, key)
}
