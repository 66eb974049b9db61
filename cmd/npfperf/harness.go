package main

import (
	"fmt"
	"runtime"
	"time"
)

// rep is one timed build-warm-run-collect cycle of a workload.
type rep struct {
	yard                      float64 // yardstick rate between set-up and the measured phase
	build, warm, run, collect float64 // host seconds per phase, as measured
	heapMB                    float64 // live heap after GC, deployment still reachable
	allocBytes                uint64  // allocated during the run phase
	allocObjects              uint64
	out                       outcome
	delta                     counts // exact counters over the measured phase
	print                     uint64 // fingerprint of out and delta
}

// speed is how much faster the machine ran than the reference machine,
// by the yardstick: measured durations are multiplied by it, rates divided.
func (r rep) speed() float64 { return r.yard / yardRef }

// runRep builds, warms, runs and collects one deployment of w. The rep and
// its measured phase each start from a collected heap, so garbage is not
// charged to the phase after the one that made it. The yardstick runs in
// between, next to both timed spans it scales and outside the CPU profile,
// which (when prof is non-nil) covers build, warm and run.
func runRep(w workload, seed int64, short bool, prof *profiler) (rep, error) {
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	if err := prof.start(); err != nil {
		return rep{}, err
	}
	t0 := time.Now()
	d := w.build(seed, short)
	t1 := time.Now()
	d.warm()
	t2 := time.Now()
	if err := prof.stop(); err != nil {
		return rep{}, err
	}
	runtime.GC()
	yard := yardstick()
	runtime.GC()
	base := d.counters()
	runtime.ReadMemStats(&m0)
	if err := prof.start(); err != nil {
		return rep{}, err
	}
	t3 := time.Now()
	d.run()
	t4 := time.Now()
	if err := prof.stop(); err != nil {
		return rep{}, err
	}
	runtime.ReadMemStats(&m1)
	t5 := time.Now()
	delta := d.counters().since(base)
	out := d.collect(delta)
	t6 := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(d)
	return rep{
		yard:         yard,
		build:        t1.Sub(t0).Seconds(),
		warm:         t2.Sub(t1).Seconds(),
		run:          t4.Sub(t3).Seconds(),
		collect:      t6.Sub(t5).Seconds(),
		heapMB:       float64(m2.HeapAlloc) / (1 << 20),
		allocBytes:   m1.TotalAlloc - m0.TotalAlloc,
		allocObjects: m1.Mallocs - m0.Mallocs,
		out:          out,
		delta:        delta,
		print:        fingerprint(out, delta),
	}, nil
}

// schedule says how many measured rounds to run after the warm-up round.
type schedule struct {
	rounds int           // measured rounds, or the minimum when budget > 0
	budget time.Duration // when > 0, add rounds until this much has passed
}

// result is one workload's measured reps plus its correctness verdict.
type result struct {
	w        workload
	reps     []rep
	problems []string
}

// fail records a problem once, however many reps hit it.
func (r *result) fail(p string) {
	for _, q := range r.problems {
		if q == p {
			return
		}
	}
	r.problems = append(r.problems, p)
}

// check gates one rep: its outcome's own problems, and its fingerprint
// against the first rep of the same seed (ref, when non-zero).
func (r *result) check(x rep, ref uint64) {
	for _, p := range x.out.problems {
		r.fail(p)
	}
	if ref != 0 && x.print != ref {
		r.fail(fmt.Sprintf("fingerprint %016x differs from %016x: a rep of the same seed diverged", x.print, ref))
	}
}

// measure runs ws round-robin, one unmeasured warm-up round and then the
// measured rounds s asks for, so slow drift of the machine is shared by
// every workload. When profs holds a profiler per workload, each
// measured rep is followed by a profiled rep of the same workload, returned
// in prof, so that both sets run on the same machine state. Every rep is
// gated against ref[name], which the first rep fills when it is unset.
func measure(ws []workload, seed int64, short bool, s schedule, profs map[string]*profiler, ref map[string]uint64) (res, prof []*result, err error) {
	results := func() []*result {
		rs := make([]*result, len(ws))
		for i, w := range ws {
			rs[i] = &result{w: w}
		}
		return rs
	}
	res = results()
	if profs != nil {
		prof = results()
	}
	one := func(r *result, p *profiler, keep bool) error {
		x, err := runRep(r.w, seed, short, p)
		if err != nil {
			return fmt.Errorf("%s: %w", r.w.name, err)
		}
		if ref[r.w.name] == 0 {
			ref[r.w.name] = x.print
		}
		r.check(x, ref[r.w.name])
		if keep {
			r.reps = append(r.reps, x)
		}
		return nil
	}
	round := func(keep bool) error {
		for i, w := range ws {
			if err := one(res[i], nil, keep); err != nil {
				return err
			}
			if prof != nil && keep {
				if err := one(prof[i], profs[w.name], true); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := round(false); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	for n := 0; n < s.rounds || (s.budget > 0 && time.Since(start) < s.budget); n++ {
		if err := round(true); err != nil {
			return nil, nil, err
		}
	}
	return res, prof, nil
}
