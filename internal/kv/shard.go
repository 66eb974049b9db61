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

	// Primary: replication log (ring of the last logCap ops) for catching
	// lagging backups up without a full snapshot.
	logKeys  []string
	logSizes []int
	logStart uint64 // sequence of logKeys[0]; log covers [logStart, seq]

	// Primary: sets awaiting backup acks, by sequence.
	pending map[uint64]pendingSet

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

	// r.replicate, r.replTimeout and r.ackDrain, bound once: the set's
	// service delay, its replication timeout and a backup's apply delay
	// are argument events carrying the message they act on.
	replicateFn, replTimeoutFn, ackDrainFn func(any)
}

// pendingSet tracks one replicated set at the primary until every backup
// acked or the replication timeout fired.
type pendingSet struct {
	need  int
	timer sim.EventID
	// reply is the client reply to release: the set request itself,
	// rewritten in place. Its From names the client host and its Seq the
	// set's sequence.
	reply *rpcMsg
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

// toReply rewrites client request m in place into its reply, addressed
// to the client host that sent it; the caller fills in the result.
//
//npf:noalloc
func (r *replica) toReply(m *rpcMsg) {
	from, id, client := m.From, m.ReqID, m.Client
	*m = rpcMsg{Kind: rpcReply, From: from, Shard: r.shard, ReqID: id, Client: client}
}

// handleClientOp serves a get or set. The request comes back to the
// client as its own reply.
func (r *replica) handleClientOp(m *rpcMsg) {
	s := r.svc
	if s.place.PrimaryHost(r.shard) != r.host.Index {
		// Stale client routing: redirect (the client re-reads placement).
		s.Redirects.Inc()
		r.toReply(m)
		m.Redirect, m.Epoch = true, s.place.Epoch(r.shard)
		s.send(r.host, m.From, rpcHeader, m)
		return
	}
	if m.Kind == rpcGet {
		hit, size, storeCost, _ := r.store.Get(m.Key)
		cost := r.opCost(m.Key, storeCost)
		r.toReply(m)
		m.Hit, m.OK, m.Size = hit, true, size
		s.Eng.AfterArg(cost, r.host.sendReplyFn, m)
		return
	}
	// Set: apply locally, then replicate synchronously.
	cost, applied := r.applySet(m.Key, m.Size)
	cost = r.opCost(m.Key, cost)
	if !applied {
		r.toReply(m) // OK stays false: shed
		s.Eng.AfterArg(cost, r.host.sendReplyFn, m)
		return
	}
	r.seq++
	r.logAppend(m.Key, m.Size)
	m.Seq = r.seq
	s.Eng.AfterArg(cost, r.replicateFn, m)
}

// replicate fans one applied set (the request m, carrying its Seq) out to
// the backups, then parks m, rewritten into the client reply, until they
// ack (or the replication timeout fires). It is bound once as
// r.replicateFn.
//
//npf:noalloc
func (r *replica) replicate(arg any) {
	m := arg.(*rpcMsg)
	s := r.svc
	seq := m.Seq
	backups := 0
	for _, hIdx := range s.place.ReplicaHosts(r.shard) {
		if hIdx == r.host.Index {
			continue
		}
		backups++
		rm := r.host.takeMsg()
		*rm = rpcMsg{
			Kind: rpcRepl, Shard: r.shard, Seq: seq, Key: m.Key, Size: m.Size,
			Epoch: s.place.Epoch(r.shard),
		}
		s.send(r.host, hIdx, rpcHeader+m.Size, rm)
	}
	r.toReply(m)
	m.OK, m.Seq = true, seq
	if backups == 0 {
		s.send(r.host, m.From, rpcHeader, m)
		return
	}
	timer := s.Eng.AfterArg(s.Cfg.ReplTimeout, r.replTimeoutFn, m)     //npf:allocok — an *rpcMsg is pointer-shaped; boxing it does not allocate
	r.pending[seq] = pendingSet{need: backups, reply: m, timer: timer} //npf:allocok — the map holds the sets in flight and grows to their peak, once
}

// replTimeout is a pending set's replication timer, bound once as
// r.replTimeoutFn; its argument is the parked reply.
//
//npf:noalloc
func (r *replica) replTimeout(arg any) {
	m := arg.(*rpcMsg)
	if p, ok := r.pending[m.Seq]; !ok || p.reply != m {
		return
	}
	delete(r.pending, m.Seq)
	r.svc.ReplTimeouts.Inc()
	// Complete the client op anyway: the write is exposed to loss until
	// the lagging backup resyncs (async-replication semantics under
	// partitions; the detector will fail the shard over if the backup is
	// truly gone).
	r.svc.send(r.host, m.From, rpcHeader, m)
}

// handleReplAck counts one backup's ack and recycles it: the ack is the
// replicated set this primary sent, come back.
//
//npf:noalloc
func (r *replica) handleReplAck(m *rpcMsg) {
	seq := m.Seq
	r.host.freeMsg(m)
	p, ok := r.pending[seq]
	if !ok {
		return // late ack after a timeout
	}
	p.need--
	if p.need > 0 {
		r.pending[seq] = p //npf:allocok — overwrites an existing key, which never grows the map
		return
	}
	delete(r.pending, seq)
	r.svc.Eng.Cancel(p.timer)
	r.svc.send(r.host, p.reply.From, rpcHeader, p.reply)
}

// handleRepl applies one replicated set at a backup, buffering gaps and
// requesting a resync when the stream cannot be made contiguous.
func (r *replica) handleRepl(m *rpcMsg) {
	s := r.svc
	if r.primary {
		r.host.freeMsg(m) // a deposed primary's stale replication; ignore
		return
	}
	if m.Seq <= r.seq {
		r.ack(m) // duplicate delivery
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
	s.Eng.AfterArg(r.opCost(m.Key, cost), r.ackDrainFn, m)
}

// ackDrain acks an in-order replicated set once its apply delay ends,
// then applies buffered ops that became contiguous. It is bound once as
// r.ackDrainFn.
func (r *replica) ackDrain(arg any) {
	r.ack(arg.(*rpcMsg))
	r.drainBuffer()
}

// drainBuffer applies buffered ops that became contiguous.
func (r *replica) drainBuffer() {
	for {
		m, ok := r.buffer[r.seq+1]
		if !ok {
			return
		}
		delete(r.buffer, r.seq+1)
		r.applySet(m.Key, m.Size) // its cost was paid by the op that made us contiguous
		r.seq = m.Seq
		r.ack(m)
	}
}

// ack rewrites replicated set m in place into its ack and sends it back
// to the primary that sent it.
//
//npf:noalloc
func (r *replica) ack(m *rpcMsg) {
	to, seq := m.From, m.Seq
	*m = rpcMsg{Kind: rpcReplAck, Shard: r.shard, Seq: seq}
	r.svc.send(r.host, to, rpcHeader, m)
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
	batch := maxResyncBatch
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
	batch := uint64(maxResyncBatch)
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
// logCap entries.
func (r *replica) logAppend(key string, size int) {
	if r.logStart == 0 {
		r.logStart = 1
	}
	r.logKeys = append(r.logKeys, key)
	r.logSizes = append(r.logSizes, size)
	if over := len(r.logKeys) - logCap; over > 0 {
		r.logKeys = r.logKeys[over:]
		r.logSizes = r.logSizes[over:]
		r.logStart += uint64(over)
	}
}
