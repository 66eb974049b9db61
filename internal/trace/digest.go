package trace

// Digest condenses everything a tracer recorded — every span field, every
// argument, every field of every completed fault record, the pending-fault
// count, and the full metrics snapshot — into one FNV-1a hash. Two runs of
// the same seeded scenario must produce the same digest; the chaos
// scenario runner uses this as its byte-identical-replay check without
// holding two full span sets in memory.
func (t *Tracer) Digest() uint64 {
	if t == nil {
		return 0
	}
	h := fnvOffset
	for i := range t.spans {
		s := &t.spans[i]
		h = fnvInt(h, int64(s.ID))
		h = fnvInt(h, int64(s.Parent))
		h = fnvStr(h, s.Cat)
		h = fnvStr(h, s.Name)
		h = fnvInt(h, int64(s.Start))
		h = fnvInt(h, int64(s.End))
		for _, a := range s.Args {
			h = fnvStr(h, a.Key)
			h = fnvStr(h, a.Val)
		}
	}
	if t.fr != nil {
		for i := range t.fr.records {
			r := &t.fr.records[i]
			if r.End < r.Start {
				continue // pending: counted below
			}
			h = fnvInt(h, int64(r.ID))
			h = fnvStr(h, r.Name)
			h = fnvInt(h, r.Node)
			h = fnvInt(h, r.Origin)
			h = fnvInt(h, r.Op)
			h = fnvInt(h, int64(r.Pages))
			h = fnvInt(h, int64(r.Start))
			h = fnvInt(h, int64(r.End))
			h = fnvInt(h, int64(r.Retries))
			for _, d := range r.Stage {
				h = fnvInt(h, int64(d))
			}
		}
	}
	h = fnvInt(h, int64(t.PendingFaults()))
	h = fnvStr(h, t.MetricsSnapshot())
	return h
}

// DigestAll folds several tracers' digests in order (multi-engine runs).
func DigestAll(tracers []*Tracer) uint64 {
	h := fnvOffset
	for _, tr := range tracers {
		h = fnvInt(h, int64(tr.Digest()))
	}
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvInt(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	// Terminate so ("ab","c") and ("a","bc") differ.
	h ^= 0xff
	h *= fnvPrime
	return h
}
