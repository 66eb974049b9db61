package trace

import (
	"fmt"
	"io"
	"sort"

	"npf/internal/sim"
)

// Post-processing over completed FaultRecords: the per-stage anatomy table
// (the paper's Table 2 shape) and critical-path extraction for tail faults.
// Everything here is pure and sorted, so renderings are byte-identical for
// any -parallel/-engines budget given the same records.

// FaultStageBreakdown builds one latency histogram (µs) per lifecycle stage
// across the records, plus "total" (detect → resume-complete). A stage
// contributes a sample only when it occurred on that fault, so the n column
// doubles as an occurrence count. Render with WriteStageTable.
func FaultStageBreakdown(records []FaultRecord) map[string]*sim.Histogram {
	out := map[string]*sim.Histogram{"total": {}}
	for i := range records {
		r := &records[i]
		out["total"].AddTime(r.Total())
		for s := FaultStage(0); s < numFaultStages; s++ {
			if r.Stage[s] <= 0 {
				continue
			}
			h := out[s.String()]
			if h == nil {
				h = &sim.Histogram{}
				out[s.String()] = h
			}
			h.AddTime(r.Stage[s])
		}
	}
	return out
}

// FaultSpans derives the span view of completed fault records — the only
// way NPF lifecycles become spans. Each record becomes an "npf" root named
// after its fault path and spanning [Start, End]; its children are the
// stages that occurred, laid end to end from Start in lifecycle order
// (fault-report, resolver-timeout, oom-backoff, driver, degrade-pin,
// update, resume). parked nests under fault-report from its start;
// page-resolve then copy nest under driver, ending at the driver's end.
// The driver's timeline for one fault is sequential, so on a fault with no
// retries every child is exactly the interval its stage occupied; a
// retried fault's stages sum several rounds and are laid out as totals.
// Span IDs run from 1 in record order; pending records are skipped.
func FaultSpans(records []FaultRecord) []Span {
	var out []Span
	add := func(parent SpanID, name string, start, end sim.Time, args []Arg) SpanID {
		id := SpanID(len(out) + 1)
		out = append(out, Span{ID: id, Parent: parent, Cat: "npf", Name: name, Start: start, End: end, Args: args})
		return id
	}
	for i := range records {
		r := &records[i]
		if r.End < r.Start {
			continue
		}
		root := add(0, r.Name, r.Start, r.End, []Arg{
			{Key: "fault", Val: itoa(r.ID.Node()) + ":" + itoa(int64(r.ID.Seq()))},
			{Key: "pages", Val: itoa(int64(r.Pages))},
		})
		at := r.Start
		for s := FSReport; s <= FSResume; s++ {
			d := r.Stage[s]
			if d <= 0 || s == FSParked || s == FSPageResolve || s == FSCopy {
				continue // absent, or nested below
			}
			id := add(root, s.String(), at, at+d, nil)
			switch s {
			case FSReport:
				if p := r.Stage[FSParked]; p > 0 {
					add(id, FSParked.String(), at, at+p, nil)
				}
			case FSDriver:
				end, cp := at+d, r.Stage[FSCopy]
				if pr := r.Stage[FSPageResolve]; pr > 0 {
					add(id, FSPageResolve.String(), end-cp-pr, end-cp, nil)
				}
				if cp > 0 {
					add(id, FSCopy.String(), end-cp, end, nil)
				}
			}
			at += d
		}
	}
	return out
}

// critComponent is one disjoint slice of a fault's end-to-end latency.
// Record stages overlap (fault-report contains parked; driver contains
// page-resolve and copy), so critical-path attribution uses this
// decomposition, which sums to ~the fault total.
type critComponent struct {
	name  string
	layer string
}

var critComponents = []critComponent{
	{"fault-report", "hw"}, // firmware detect + interrupt + report queue
	{"parked", "queue"},    // backup-ring residency (Ethernet)
	{"retry", "queue"},     // resolver timeouts + OOM backoff rounds
	{"driver", "sw"},       // driver + OS fault-in (incl. page-resolve, copy, pin)
	{"update", "sw+hw"},    // IOMMU page-table update
	{"resume", "hw"},       // device notices and resumes
}

// components returns the disjoint per-component durations for one record,
// index-aligned with critComponents.
func components(r *FaultRecord) [6]sim.Time {
	parked := r.Stage[FSParked]
	report := r.Stage[FSReport] - parked
	if report < 0 {
		report = 0
	}
	return [6]sim.Time{
		report,
		parked,
		r.Stage[FSResolverTimeout] + r.Stage[FSOOMBackoff],
		r.Stage[FSDriver],
		r.Stage[FSUpdate],
		r.Stage[FSResume],
	}
}

// CritStage aggregates the tail faults dominated by one component.
type CritStage struct {
	Stage     string
	Layer     string
	Count     int     // tail faults whose largest component this is
	Host      int64   // most common detecting node among them (lowest wins ties)
	MeanShare float64 // mean fraction of those faults' totals it accounts for
	MeanUs    float64 // mean duration of the component on those faults
}

// CritPath is the critical-path extraction for the tail at one percentile.
type CritPath struct {
	Pct         float64
	ThresholdUs float64 // the percentile latency; tail = faults at/above it
	Tail        int
	Total       int
	Stages      []CritStage // by Count descending, component order on ties
}

// CriticalPath finds, for faults at or above the pct-th percentile of total
// latency, which lifecycle component dominates each and aggregates the
// answer. Returns nil when there are no completed records.
func CriticalPath(records []FaultRecord, pct float64) *CritPath {
	if len(records) == 0 {
		return nil
	}
	var totals sim.Histogram
	for i := range records {
		totals.AddTime(records[i].Total())
	}
	thr := totals.Percentile(pct)
	cp := &CritPath{Pct: pct, ThresholdUs: thr, Total: len(records)}

	type agg struct {
		count  int
		sumUs  float64
		share  float64
		hosts  []int64 // parallel slices instead of a map: deterministic, tiny
		hostsN []int
	}
	aggs := make([]agg, len(critComponents))
	for i := range records {
		r := &records[i]
		tot := r.Total()
		if tot.Micros() < thr || tot <= 0 {
			continue
		}
		cp.Tail++
		comp := components(r)
		dom, best := 0, sim.Time(-1)
		for c, d := range comp {
			if d > best {
				dom, best = c, d
			}
		}
		a := &aggs[dom]
		a.count++
		a.sumUs += best.Micros()
		a.share += float64(best) / float64(tot)
		found := false
		for h := range a.hosts {
			if a.hosts[h] == r.Node {
				a.hostsN[h]++
				found = true
				break
			}
		}
		if !found {
			a.hosts = append(a.hosts, r.Node)
			a.hostsN = append(a.hostsN, 1)
		}
	}
	for c, a := range aggs {
		if a.count == 0 {
			continue
		}
		host, hostN := int64(-1), 0
		for h := range a.hosts {
			if a.hostsN[h] > hostN || (a.hostsN[h] == hostN && a.hosts[h] < host) {
				host, hostN = a.hosts[h], a.hostsN[h]
			}
		}
		cp.Stages = append(cp.Stages, CritStage{
			Stage: critComponents[c].name, Layer: critComponents[c].layer,
			Count: a.count, Host: host,
			MeanShare: a.share / float64(a.count),
			MeanUs:    a.sumUs / float64(a.count),
		})
	}
	sort.SliceStable(cp.Stages, func(i, j int) bool {
		return cp.Stages[i].Count > cp.Stages[j].Count
	})
	return cp
}

// Write renders the critical path:
//
//	critical path @p99.0 (threshold 1234.5us, 12/1200 faults in tail):
//	  stage          layer      n  share%    mean_us  host
//	  fault-report   hw        10    93.2     1150.2  2
func (c *CritPath) Write(w io.Writer) {
	if c == nil {
		fmt.Fprintln(w, "critical path: no completed faults")
		return
	}
	fmt.Fprintf(w, "critical path @p%.1f (threshold %.1fus, %d/%d faults in tail):\n",
		c.Pct, c.ThresholdUs, c.Tail, c.Total)
	fmt.Fprintf(w, "  %-14s %-6s %5s %7s %10s  %s\n", "stage", "layer", "n", "share%", "mean_us", "host")
	for _, s := range c.Stages {
		fmt.Fprintf(w, "  %-14s %-6s %5d %7.1f %10.1f  %d\n",
			s.Stage, s.Layer, s.Count, 100*s.MeanShare, s.MeanUs, s.Host)
	}
}

// PathCount is one fault-path name and how many completed records took it.
type PathCount struct {
	Name string
	N    int
}

// FaultPathCounts tallies completed records by fault path name, sorted by
// name — the one-line provenance summary under an anatomy table.
func FaultPathCounts(records []FaultRecord) []PathCount {
	byName := map[string]int{}
	for i := range records {
		byName[records[i].Name]++
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]PathCount, len(names))
	for i, n := range names {
		out[i] = PathCount{Name: n, N: byName[n]}
	}
	return out
}
