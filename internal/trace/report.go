package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"npf/internal/sim"
)

// Text reporting: span forest rendering, top-k slowest roots, and the
// per-stage percentile table (the Fig. 3a decomposition, measured from
// fault records rather than bookkept by the bench runner).

// node is one span plus child indices, used while building the forest.
type node struct {
	span     *Span
	children []int
}

func buildForest(spans []Span) (nodes []node, roots []int) {
	nodes = make([]node, len(spans))
	byID := make(map[SpanID]int, len(spans))
	for i := range spans {
		nodes[i].span = &spans[i]
		byID[spans[i].ID] = i
	}
	for i := range spans {
		p := spans[i].Parent
		if pi, ok := byID[p]; ok && p != 0 {
			nodes[pi].children = append(nodes[pi].children, i)
		} else {
			roots = append(roots, i)
		}
	}
	return nodes, roots
}

// WriteTree renders the span forest as an indented tree with virtual-time
// offsets and durations in microseconds. Output order is recording order,
// hence deterministic.
func WriteTree(w io.Writer, spans []Span) {
	nodes, roots := buildForest(spans)
	for _, r := range roots {
		writeNode(w, nodes, r, 0)
	}
}

func writeNode(w io.Writer, nodes []node, i, depth int) {
	s := nodes[i].span
	for d := 0; d < depth; d++ {
		fmt.Fprint(w, "  ")
	}
	dur := "open"
	if !s.Open() {
		dur = fmt.Sprintf("%8.1fus", float64(s.Dur())/1e3)
	}
	fmt.Fprintf(w, "%-6s %-14s @%10.1fus  %s", s.Cat, s.Name, float64(s.Start)/1e3, dur)
	for _, a := range s.Args {
		fmt.Fprintf(w, "  %s=%s", a.Key, a.Val)
	}
	fmt.Fprintln(w)
	for _, c := range nodes[i].children {
		writeNode(w, nodes, c, depth+1)
	}
}

// RootDur is one root span with its total duration, for top-k reports.
type RootDur struct {
	Span *Span
	Dur  sim.Time
}

// TopSlowest returns the k slowest closed root spans of category cat
// (all categories if cat == ""), slowest first. Ties break on span ID so
// the order is deterministic.
func TopSlowest(spans []Span, cat string, k int) []RootDur {
	var all []RootDur
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.Open() {
			continue
		}
		if cat != "" && s.Cat != cat {
			continue
		}
		all = append(all, RootDur{Span: s, Dur: s.Dur()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dur != all[j].Dur {
			return all[i].Dur > all[j].Dur
		}
		return all[i].Span.ID < all[j].Span.ID
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// safeHist shields report rendering from nil map entries: callers may build
// stage maps by hand (tests, tools) and a nil *Histogram must render as an
// empty one, not panic.
func safeHist(h *sim.Histogram) *sim.Histogram {
	if h == nil {
		return &sim.Histogram{}
	}
	return h
}

// finite scrubs NaN and infinities to 0 so report tables and ratios stay
// printable even if a histogram was fed pathological samples.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// WriteStageTable renders a FaultStageBreakdown as a fixed-width percentile
// table, stages sorted by name with "total" last. Empty maps render as a
// header-only table; nil histograms render as zero rows.
func WriteStageTable(w io.Writer, stages map[string]*sim.Histogram) {
	names := make([]string, 0, len(stages))
	for n := range stages {
		if n != "total" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if _, ok := stages["total"]; ok {
		names = append(names, "total")
	}
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %10s %10s\n",
		"stage", "n", "mean_us", "p50_us", "p95_us", "p99_us", "max_us")
	for _, n := range names {
		h := safeHist(stages[n])
		fmt.Fprintf(w, "%-14s %8d %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			n, h.Count(), finite(h.Mean()), finite(h.Percentile(50)),
			finite(h.Percentile(95)), finite(h.Percentile(99)), finite(h.Max()))
	}
}

// HardwareShare computes, from a FaultStageBreakdown, the fraction of mean
// NPF time spent in hardware-side stages — the disjoint fault-report
// (device detection, interrupt and report, minus backup-ring residency),
// the page-table update and the resume — the quantity the paper's Fig. 3a
// reports as ≈90% at 4 KB. Returns 0 if there is no total, the total is
// empty (avoiding a 0/0 NaN), or the map holds only nil/zero-count
// histograms.
func HardwareShare(stages map[string]*sim.Histogram) float64 {
	tot := safeHist(stages["total"])
	if tot.Count() == 0 || tot.Mean() == 0 {
		return 0
	}
	// A stage's summed time, not its mean: stages may not appear on every
	// fault, so each contributes by its occurrence count.
	sum := func(name string) float64 {
		if h := safeHist(stages[name]); h.Count() > 0 {
			return h.Mean() * float64(h.Count())
		}
		return 0
	}
	hw := sum("fault-report") - sum("parked") + sum("update") + sum("resume")
	return finite(hw / float64(tot.Count()) / tot.Mean())
}
