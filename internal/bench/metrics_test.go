package bench

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden metric snapshots under testdata/")

// snapshotMetrics parses a MetricsSnapshot into counter values and latency
// sample counts by name.
func snapshotMetrics(t *testing.T, snap string) (counters, latencyN map[string]uint64) {
	t.Helper()
	counters, latencyN = map[string]uint64{}, map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(snap), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			t.Fatalf("malformed snapshot line %q", line)
		}
		switch f[0] {
		case "counter":
			v, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				t.Fatalf("snapshot line %q: %v", line, err)
			}
			counters[f[1]] = v
		case "latency":
			v, err := strconv.ParseUint(strings.TrimPrefix(f[2], "n="), 10, 64)
			if err != nil {
				t.Fatalf("snapshot line %q: %v", line, err)
			}
			latencyN[f[1]] = v
		}
	}
	return counters, latencyN
}

// TestPublishedMetricsMatchStats pins "one count per fact": every metric
// the tracer reports is the sum of the stats fields the layers publish —
// across both HCAs, both drivers and both address spaces of a traced IB
// env. The run covers the paths where a hand-kept trace twin once drifted
// from its stats field: RDMA reads into cold buffers under the read-RNR
// extension (RNR NACKs sent by the read initiator) and DiscardPages
// (evictions outside reclaim).
func TestPublishedMetricsMatchStats(t *testing.T) {
	e := NewIBEnv(IBOpts{Seed: 5, Scope: &Scope{Trace: trace.New}, Tweak: func(c *rc.Config) {
		c.ReadRNRExtension = true
	}})
	const readLen = 64 << 10
	const readPages = readLen / mem.PageSize
	remote := mem.PageNum(4096)
	Warm(e.QPB, remote, readPages)
	Warm(e.QPA, remote, 1)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			e.QPA.PostRead(rc.ReadWQE{ID: int64(i), Laddr: mem.VAddr(i) * readLen, Raddr: remote.Base(), Len: readLen})
			e.QPB.PostRecv(rc.RecvWQE{ID: int64(i), Addr: mem.VAddr(i) * mem.PageSize, Len: mem.PageSize})
			e.QPA.PostSend(rc.SendWQE{ID: int64(i), Laddr: remote.Base(), Len: mem.PageSize})
		}
		e.Run()
		e.ASA.DiscardPages(0, 4*readPages)
		e.ASB.DiscardPages(0, 4)
	}

	a, b := e.HCAA, e.HCAB
	da, db := e.DrvA, e.DrvB
	sa, sb := e.ASA, e.ASB
	want := map[string]uint64{
		"rc.rnr_nacks":           a.RNRNacks.N + b.RNRNacks.N,
		"rc.retransmits":         a.Retransmits.N + b.Retransmits.N,
		"rc.read_rewinds":        a.ReadRewinds.N + b.ReadRewinds.N,
		"iommu.faults":           a.MMU.Faults.N + b.MMU.Faults.N,
		"iommu.walks":            a.MMU.Walks.N + b.MMU.Walks.N,
		"iommu.map_pages":        a.MMU.MapPages.N + b.MMU.MapPages.N,
		"iommu.map_batches":      a.MMU.MapBatches.N + b.MMU.MapBatches.N,
		"iommu.unmap_pages":      a.MMU.UnmapPages.N + b.MMU.UnmapPages.N,
		"iommu.inv_batches":      a.MMU.InvBatches.N + b.MMU.InvBatches.N,
		"core.npfs":              da.NPFs.N + db.NPFs.N,
		"core.major_npfs":        da.MajorNPFs.N + db.MajorNPFs.N,
		"core.rx_reports":        da.RxReports.N + db.RxReports.N,
		"core.oom_backoffs":      da.OOMBackoffs.N + db.OOMBackoffs.N,
		"core.inv_fastpath":      da.Inv.FastPath.N + db.Inv.FastPath.N,
		"core.inv_mapped":        da.Inv.Mapped.N + db.Inv.Mapped.N,
		"core.resolver_timeouts": da.ResolverTimeouts.N + db.ResolverTimeouts.N,
		"core.degraded_pins":     da.DegradedPins.N + db.DegradedPins.N,
		"core.inv_duplicates":    da.InvDuplicates.N + db.InvDuplicates.N,
		"mem.minor_faults":       sa.MinorFaults.N + sb.MinorFaults.N,
		"mem.major_faults":       sa.MajorFaults.N + sb.MajorFaults.N,
		"mem.evictions":          sa.Evicted.N + sb.Evicted.N,
		"mem.invalidations":      sa.Evicted.N + sb.Evicted.N,   // every eviction is one invalidation
		"iommu.iotlb_misses":     a.MMU.Walks.N + b.MMU.Walks.N, // with an IOTLB every walk is a miss
		"core.inv_mapped_us n=":  uint64(da.Inv.Total.Count() + db.Inv.Total.Count()),
		"mem.fault_us n=":        sa.MinorFaults.N + sa.MajorFaults.N + sb.MinorFaults.N + sb.MajorFaults.N,
	}
	counters, latencyN := snapshotMetrics(t, e.Tracer.MetricsSnapshot())
	got := map[string]uint64{}
	for name, v := range counters {
		// The IOTLB's hit count is private to package iommu, whose
		// TestSetTracerPublishesIOTLB checks it.
		if name != "iommu.iotlb_hits" {
			got[name] = v
		}
	}
	for name, n := range latencyN {
		got[name+" n="] = n
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		w, inWant := want[name]
		g, inGot := got[name]
		switch {
		case !inGot:
			t.Errorf("%s: not published", name)
		case !inWant:
			t.Errorf("%s: published but not checked here; add its stats fields", name)
		case g != w:
			t.Errorf("%s: tracer reports %d, stats fields sum to %d", name, g, w)
		}
	}
	// The run must exercise the paths it claims to cover.
	for _, name := range []string{"rc.rnr_nacks", "mem.evictions", "core.npfs", "iommu.faults"} {
		if want[name] == 0 {
			t.Errorf("%s is 0: the scenario no longer exercises it", name)
		}
	}
	if a.RNRNacks.N == 0 {
		t.Error("no read-RNR NACK on the read initiator")
	}
}

// TestMetricsGoldenFig3 pins the metric names and values of the traced
// Figure 3a scenario, so any drift between a metric and the stats field it
// reports shows up as a diff. Regenerate with -update after an intended
// change and explain every changed line.
func TestMetricsGoldenFig3(t *testing.T) {
	got := runTracedNPFs(7, 30, true, true).Tracer.MetricsSnapshot()
	path := filepath.Join("testdata", "metrics_fig3.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metrics snapshot differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
