package kv

import (
	"errors"

	"npf/internal/apps"
	"npf/internal/core"
	"npf/internal/mem"
	"npf/internal/sim"
)

// replica is one copy of one shard on one host. The primary serves client
// ops and replicates sets to the backups; backups apply the replicated op
// stream in sequence order, so a quiesced shard's replicas hold identical
// stores (the invariant CheckConsistency verifies).
type replica struct {
	svc   *Service
	shard int
	host  *HostNode

	group *mem.Group
	as    *mem.AddressSpace
	store *apps.KVStore
	pdc   *core.PinDownCache // RegPinDown only

	primary bool
	seq     uint64 // last op sequence applied (primary: also last assigned)

	// Primary: replication log (ring of the last LogCap ops) for catching
	// lagging backups up without a full snapshot.
	logKeys  []string
	logSizes []int
	logStart uint64 // sequence of logKeys[0]; log covers [logStart, seq]

	// Primary: sets awaiting backup acks, by sequence.
	pending map[uint64]*pendingSet

	// Backup: out-of-order replicated ops buffered until contiguous, and
	// whether a resync is already in flight. gapAt stamps when the buffer
	// last became non-empty (the detector escalates stale gaps).
	buffer    map[uint64]*rpcMsg
	gapAt     sim.Time
	resyncing bool
	// resyncAt/resyncFull let the detector re-issue a resync whose request
	// or response was lost with a failed connection.
	resyncAt   sim.Time
	resyncFull bool

	shed uint64 // sets dropped after the arena stayed exhausted
}

// pendingSet tracks one replicated set at the primary until every backup
// acked or the replication timeout fired.
type pendingSet struct {
	need  int
	timer sim.EventID
	reply *rpcMsg // the client reply to release
	to    int     // client host index
}

// handle dispatches one shard-addressed message.
func (r *replica) handle(m *rpcMsg) {
	switch m.Kind {
	case rpcGet, rpcSet:
		r.handleClientOp(m)
	case rpcRepl:
		r.handleRepl(m)
	case rpcReplAck:
		r.handleReplAck(m)
	case rpcResyncReq:
		r.handleResyncReq(m)
	case rpcResyncData:
		r.handleResyncData(m)
	}
}

// opCost is the server-side synchronous cost of touching a value: CPU
// service time, the store's memory cost (minor/major faults under
// reclaim), and pin-down registration when that policy is active.
func (r *replica) opCost(key string, storeCost sim.Time) sim.Time {
	cost := r.svc.Cfg.ServiceTime + storeCost
	if r.pdc != nil {
		if addr, size, ok := r.store.Peek(key); ok {
			c, err := r.pdc.Acquire(addr, size)
			if err == nil {
				cost += c
			}
		}
	}
	return cost
}

func (r *replica) handleClientOp(m *rpcMsg) {
	s := r.svc
	if s.place.PrimaryHost(r.shard) != r.host.Index {
		// Stale client routing: redirect (the client re-reads placement).
		s.Redirects.Inc()
		reply := &rpcMsg{Kind: rpcReply, Shard: r.shard, ReqID: m.ReqID,
			Client: m.Client, Redirect: true, Epoch: s.place.Epoch(r.shard)}
		s.send(r.host, m.From, rpcHeader, reply)
		return
	}
	if m.Kind == rpcGet {
		hit, size, storeCost, _ := r.store.Get(m.Key)
		cost := r.opCost(m.Key, storeCost)
		reply := &rpcMsg{Kind: rpcReply, From: m.From, Shard: r.shard, ReqID: m.ReqID,
			Client: m.Client, Hit: hit, OK: true, Size: size}
		s.Eng.AfterArg(cost, r.host.sendReplyFn, reply)
		return
	}
	// Set: apply locally, then replicate synchronously.
	cost, applied := r.applySet(m.Key, m.Size)
	cost = r.opCost(m.Key, cost)
	reply := &rpcMsg{Kind: rpcReply, Shard: r.shard, ReqID: m.ReqID,
		Client: m.Client, OK: applied}
	from := m.From
	if !applied {
		s.Eng.After(cost, func() { s.send(r.host, from, rpcHeader, reply) })
		return
	}
	r.seq++
	seq := r.seq
	r.logAppend(m.Key, m.Size)
	key, size := m.Key, m.Size
	s.Eng.After(cost, func() { r.replicate(seq, key, size, reply, from) })
}

// replicate fans one applied set out to the backups and parks the client
// reply until they ack (or the replication timeout fires).
func (r *replica) replicate(seq uint64, key string, size int, reply *rpcMsg, to int) {
	s := r.svc
	backups := 0
	for _, hIdx := range s.place.ReplicaHosts(r.shard) {
		if hIdx == r.host.Index {
			continue
		}
		backups++
		s.send(r.host, hIdx, rpcHeader+size, &rpcMsg{
			Kind: rpcRepl, Shard: r.shard, Seq: seq, Key: key, Size: size,
			Epoch: s.place.Epoch(r.shard),
		})
	}
	if backups == 0 {
		s.send(r.host, to, rpcHeader, reply)
		return
	}
	p := &pendingSet{need: backups, reply: reply, to: to}
	r.pending[seq] = p
	p.timer = s.Eng.After(s.Cfg.ReplTimeout, func() {
		if r.pending[seq] != p {
			return
		}
		delete(r.pending, seq)
		s.ReplTimeouts.Inc()
		// Complete the client op anyway: the write is exposed to loss
		// until the lagging backup resyncs (async-replication semantics
		// under partitions; the detector will fail the shard over if the
		// backup is truly gone).
		s.send(r.host, to, rpcHeader, reply)
	})
}

func (r *replica) handleReplAck(m *rpcMsg) {
	p, ok := r.pending[m.Seq]
	if !ok {
		return // late ack after a timeout
	}
	p.need--
	if p.need > 0 {
		return
	}
	delete(r.pending, m.Seq)
	r.svc.Eng.Cancel(p.timer)
	r.svc.send(r.host, p.to, rpcHeader, p.reply)
}

// handleRepl applies one replicated set at a backup, buffering gaps and
// requesting a resync when the stream cannot be made contiguous.
func (r *replica) handleRepl(m *rpcMsg) {
	s := r.svc
	if r.primary {
		return // a deposed primary's stale replication; ignore
	}
	if m.Seq <= r.seq {
		r.ack(m.From, m.Seq) // duplicate delivery
		return
	}
	if m.Seq > r.seq+1 {
		// Out-of-order (replication timers race) or a real gap (messages
		// lost to a failed conn): buffer, and let the detector loop
		// request a resync if the gap persists past ReplTimeout.
		if len(r.buffer) == 0 {
			r.gapAt = s.Eng.Now()
		}
		r.buffer[m.Seq] = m
		return
	}
	cost, _ := r.applySet(m.Key, m.Size)
	r.seq = m.Seq
	from := m.From
	seq := m.Seq
	s.Eng.After(r.opCost(m.Key, cost), func() {
		r.ack(from, seq)
		r.drainBuffer()
	})
}

// drainBuffer applies buffered ops that became contiguous.
func (r *replica) drainBuffer() {
	for {
		m, ok := r.buffer[r.seq+1]
		if !ok {
			return
		}
		delete(r.buffer, r.seq+1)
		cost, _ := r.applySet(m.Key, m.Size)
		r.seq = m.Seq
		_ = cost // already paid by the batch that made us contiguous
		r.ack(m.From, m.Seq)
	}
}

func (r *replica) ack(to int, seq uint64) {
	r.svc.send(r.host, to, rpcHeader, &rpcMsg{
		Kind: rpcReplAck, Shard: r.shard, Seq: seq,
	})
}

// requestResync asks the current primary for the missing tail (or a full
// snapshot after a demotion / truncated log).
func (r *replica) requestResync(full bool) {
	s := r.svc
	ph := s.place.PrimaryHost(r.shard)
	if ph == r.host.Index {
		return
	}
	r.resyncing = true
	r.resyncAt = s.Eng.Now()
	r.resyncFull = full
	s.Resyncs.Inc()
	s.send(r.host, ph, rpcHeader, &rpcMsg{
		Kind: rpcResyncReq, Shard: r.shard, Seq: r.seq, Full: full,
	})
}

// handleResyncReq serves a backup's catch-up request from the primary.
func (r *replica) handleResyncReq(m *rpcMsg) {
	s := r.svc
	if !r.primary {
		return
	}
	from := m.Seq + 1
	if !m.Full && from >= r.logStart && from <= r.seq+1 {
		r.sendLogRange(m.From, from)
		return
	}
	// Snapshot: the full store in deterministic (LRU) order.
	keys := r.store.Keys()
	sizes := make([]int, len(keys))
	for i, k := range keys {
		_, size, _ := r.store.Peek(k)
		sizes[i] = size
	}
	batch := s.maxResyncBatch()
	if len(keys) == 0 {
		s.send(r.host, m.From, rpcHeader, &rpcMsg{
			Kind: rpcResyncData, Shard: r.shard, Reset: true, Last: true, Seq: r.seq,
		})
		return
	}
	for i := 0; i < len(keys); i += batch {
		j := i + batch
		if j > len(keys) {
			j = len(keys)
		}
		bytes := rpcHeader
		for _, sz := range sizes[i:j] {
			bytes += sz
		}
		s.send(r.host, m.From, bytes, &rpcMsg{
			Kind: rpcResyncData, Shard: r.shard,
			Reset: i == 0, Last: j == len(keys), Seq: r.seq,
			Keys: keys[i:j], Sizes: sizes[i:j],
		})
	}
}

// sendLogRange streams log entries [from, r.seq] in bounded batches.
func (r *replica) sendLogRange(to int, from uint64) {
	s := r.svc
	batch := uint64(s.maxResyncBatch())
	if from > r.seq { // nothing missing; just close the resync
		s.send(r.host, to, rpcHeader, &rpcMsg{
			Kind: rpcResyncData, Shard: r.shard, Last: true,
			SeqStart: from, Seq: r.seq,
		})
		return
	}
	for lo := from; lo <= r.seq; lo += batch {
		hi := lo + batch - 1
		if hi > r.seq {
			hi = r.seq
		}
		mm := &rpcMsg{Kind: rpcResyncData, Shard: r.shard,
			SeqStart: lo, Last: hi == r.seq, Seq: r.seq}
		bytes := rpcHeader
		for q := lo; q <= hi; q++ {
			i := int(q - r.logStart)
			mm.Keys = append(mm.Keys, r.logKeys[i])
			mm.Sizes = append(mm.Sizes, r.logSizes[i])
			bytes += r.logSizes[i]
		}
		s.send(r.host, to, bytes, mm)
	}
}

// handleResyncData applies one resync batch at the backup. Batches arrive
// in order (both transports are ordered); a snapshot's first batch resets
// the store and the last batch fast-forwards the sequence.
func (r *replica) handleResyncData(m *rpcMsg) {
	if r.primary {
		return
	}
	if m.Reset {
		r.store.Reset()
	}
	for i, k := range m.Keys {
		if m.SeqStart != 0 && m.SeqStart+uint64(i) <= r.seq {
			continue // already applied via in-flight replication
		}
		if _, ok := r.applySet(k, m.Sizes[i]); !ok {
			break
		}
		if m.SeqStart != 0 {
			r.seq = m.SeqStart + uint64(i)
		}
	}
	if m.Last {
		if r.seq < m.Seq {
			r.seq = m.Seq
		}
		r.resyncing = false
		// Drop buffered ops the snapshot already covers, then apply the
		// now-contiguous tail.
		//npf:orderinvariant — deleting every key <= seq is commutative
		for seq := range r.buffer {
			if seq <= r.seq {
				delete(r.buffer, seq)
			}
		}
		r.drainBuffer()
	}
}

// promote makes this replica the shard's primary (placement has already
// been updated). The new lineage continues from the backup's applied
// sequence; writes the old primary completed after a replication timeout
// are lost, which is the documented durability cost of that timeout.
func (r *replica) promote() {
	r.primary = true
	r.resyncing = false
	r.buffer = make(map[uint64]*rpcMsg)
	r.logKeys, r.logSizes = nil, nil
	r.logStart = r.seq + 1
}

// demote turns a deposed primary back into a backup and schedules a full
// resync from the new primary (its tail may contain lost writes).
func (r *replica) demote() {
	r.primary = false
	//npf:orderinvariant — cancelling every pending timer is commutative
	for seq, p := range r.pending {
		r.svc.Eng.Cancel(p.timer)
		delete(r.pending, seq)
	}
	r.requestResync(true)
}

// applySet writes one value into the store, degrading gracefully when the
// arena is exhausted: evict the oldest items to recycle slots, and shed
// the op if that fails (counted, never a crash).
func (r *replica) applySet(key string, size int) (sim.Time, bool) {
	var total sim.Time
	for tries := 0; ; tries++ {
		cost, err := r.store.Set(key, size)
		total += cost
		if err == nil {
			return total, true
		}
		if errors.Is(err, apps.ErrArenaExhausted) && tries < 8 && r.store.EvictOldest() {
			r.svc.ArenaEvicts.Inc()
			continue
		}
		r.shed++
		r.svc.Shed.Inc()
		return total, false
	}
}

// logAppend records one op in the primary's replication log, trimming to
// LogCap entries.
func (r *replica) logAppend(key string, size int) {
	if r.logStart == 0 {
		r.logStart = 1
	}
	r.logKeys = append(r.logKeys, key)
	r.logSizes = append(r.logSizes, size)
	if over := len(r.logKeys) - r.svc.Cfg.LogCap; over > 0 {
		r.logKeys = r.logKeys[over:]
		r.logSizes = r.logSizes[over:]
		r.logStart += uint64(over)
	}
}
