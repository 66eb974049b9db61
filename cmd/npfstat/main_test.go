package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"npf/internal/artifact"
)

func mkArtifact(events uint64, engines int, allocs int64) *artifact.Artifact {
	a := &artifact.Artifact{}
	a.EngineBench.AllocsPerOp = allocs
	a.Experiments = []artifact.Experiment{{Name: "fig3", Engines: engines, Events: events}}
	return a
}

const tol = 0.05

func TestDiffPassesOnIdenticalRuns(t *testing.T) {
	base := mkArtifact(1000, 3, 0)
	cur := mkArtifact(1000, 3, 0)
	rows, pass := diff(base, cur, tol)
	if !pass {
		t.Fatalf("identical runs fail:\n%+v", rows)
	}
	for _, r := range rows {
		if r.v != vOK {
			t.Fatalf("row %s/%s verdict %v, want ok", r.scope, r.metric, r.v)
		}
	}
}

func TestDiffHardFailures(t *testing.T) {
	base := mkArtifact(1000, 3, 0)
	for name, cur := range map[string]*artifact.Artifact{
		"event drift":      mkArtifact(1100, 3, 0),
		"engine mismatch":  mkArtifact(1000, 4, 0),
		"alloc regression": mkArtifact(1000, 3, 2),
	} {
		if _, pass := diff(base, cur, tol); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
	// Unknown experiment: structural drift.
	cur := mkArtifact(1000, 3, 0)
	cur.Experiments[0].Name = "fig99"
	if _, pass := diff(base, cur, tol); pass {
		t.Fatal("unknown experiment passed the gate")
	}
}

func TestDiffEventsGateExactly(t *testing.T) {
	// Event counts are a pure function of the seed — conservation across
	// -parallel values is part of the determinism contract —
	// so even a single-event delta is a hard failure, count-tol or not.
	base := mkArtifact(1000, 3, 0)
	cur := mkArtifact(1001, 3, 0)
	if _, pass := diff(base, cur, tol); pass {
		t.Fatal("one-event drift passed the gate")
	}
	if _, pass := diff(base, cur, 0.9); pass {
		t.Fatal("count-tol loosened the exact events gate")
	}
}

func mkKVArtifact(ops int, npfs, evicts, failovers uint64) *artifact.Artifact {
	a := mkArtifact(1000, 3, 0)
	a.KV = []artifact.KVRow{{
		Policy: "odp", Ops: ops, P99Us: 7000,
		NPFs: npfs, Evictions: evicts, Failovers: failovers,
	}}
	return a
}

func TestDiffKVGate(t *testing.T) {
	base := mkKVArtifact(1200, 1300, 2000, 0)
	if _, pass := diff(base, mkKVArtifact(1200, 1300, 2000, 0), tol); !pass {
		t.Fatal("identical KV rows failed the gate")
	}
	// In-tolerance count drift passes; ops drift never does.
	if _, pass := diff(base, mkKVArtifact(1200, 1330, 2040, 0), tol); !pass {
		t.Fatal("in-tolerance KV count drift failed the gate")
	}
	for name, cur := range map[string]*artifact.Artifact{
		"lost ops":           mkKVArtifact(1199, 1300, 2000, 0),
		"npf drift":          mkKVArtifact(1200, 2600, 2000, 0),
		"eviction drift":     mkKVArtifact(1200, 1300, 100, 0),
		"spurious failovers": mkKVArtifact(1200, 1300, 2000, 3),
	} {
		if _, pass := diff(base, cur, tol); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
	// A policy the baseline has never seen is structural drift.
	cur := mkKVArtifact(1200, 1300, 2000, 0)
	cur.KV[0].Policy = "mystery"
	if _, pass := diff(base, cur, tol); pass {
		t.Fatal("unknown KV policy passed the gate")
	}
	// A baseline without a KV section gates nothing but also hides nothing:
	// every current row is "not in baseline".
	if _, pass := diff(mkArtifact(1000, 3, 0), cur, tol); pass {
		t.Fatal("KV rows passed against a KV-less baseline")
	}
}

func mkAnatomyArtifact(faults, pending int, p99 float64, stage string) *artifact.Artifact {
	a := mkArtifact(1000, 3, 0)
	a.FaultAnatomy = []artifact.AnatomyRow{{
		Policy: "odp", Faults: faults, Pending: pending, NPFs: 1300,
		TotalP50Us: 250, TotalP99Us: p99,
		CritStage: stage, CritLayer: "hw", CritHost: 2, CritShare: 0.9,
	}}
	return a
}

func TestDiffAnatomyGate(t *testing.T) {
	base := mkAnatomyArtifact(1300, 2, 7000, "fault-report")
	if _, pass := diff(base, mkAnatomyArtifact(1300, 2, 7000, "fault-report"), tol); !pass {
		t.Fatal("identical anatomy rows failed the gate")
	}
	// Percentiles drift within -count-tol; fault accounting never does.
	if _, pass := diff(base, mkAnatomyArtifact(1300, 2, 7200, "fault-report"), tol); !pass {
		t.Fatal("in-tolerance anatomy p99 drift failed the gate")
	}
	for name, cur := range map[string]*artifact.Artifact{
		"fault-count drift": mkAnatomyArtifact(1299, 2, 7000, "fault-report"),
		"leaked pending":    mkAnatomyArtifact(1300, 3, 7000, "fault-report"),
		"p99 blowup":        mkAnatomyArtifact(1300, 2, 14000, "fault-report"),
		"crit-path shift":   mkAnatomyArtifact(1300, 2, 7000, "driver"),
	} {
		if _, pass := diff(base, cur, tol); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
	// Dropped telemetry warns but does not fail.
	cur := mkAnatomyArtifact(1300, 2, 7000, "fault-report")
	cur.FaultAnatomy[0].DroppedEvents = 5
	cur.TraceDrops = &artifact.TraceDrops{Tracers: 2, FaultEvents: 5}
	rows, pass := diff(base, cur, tol)
	if !pass {
		t.Fatal("dropped-telemetry warning hard-failed the gate")
	}
	warns := 0
	for _, r := range rows {
		if r.v == vWarn && r.metric == "dropped_fault_events" {
			warns++
		}
	}
	if warns != 2 {
		t.Fatalf("got %d dropped-telemetry warnings, want 2 (row + summary):\n%+v", warns, rows)
	}
}

func mkScaleOutArtifact(fingerprint string, hosts int, tenantOps, lost uint64, p99 float64) *artifact.Artifact {
	a := mkArtifact(1000, 3, 0)
	a.ScaleOut = []artifact.ScaleOutRow{{
		Transport: "eth", Hosts: hosts, Clients: 3600, Ops: 7200,
		NPFs: 900, Evictions: 400, BytesPerHost: 27000, Fingerprint: fingerprint,
		Tenants: []artifact.TenantRow{
			{Tenant: "odp", Reg: "odp", Clients: 1200, Ops: tenantOps, Lost: lost, P50Us: 3700, P99Us: p99},
			{Tenant: "pinned", Reg: "pinned", Clients: 1200, Ops: 2400, P50Us: 220, P99Us: 3600},
		},
	}}
	return a
}

func TestDiffScaleOutGate(t *testing.T) {
	mk := func() *artifact.Artifact { return mkScaleOutArtifact("ae4a32d1b737695a", 64, 2400, 0, 62000) }
	base := mk()
	if _, pass := diff(base, mk(), tol); !pass {
		t.Fatal("identical scale-out rows failed the gate")
	}
	// Tenant tail percentiles hold within -count-tol.
	if _, pass := diff(base, mkScaleOutArtifact("ae4a32d1b737695a", 64, 2400, 0, 63000), tol); !pass {
		t.Fatal("in-tolerance tenant p99 drift failed the gate")
	}
	clients, ops := mk(), mk()
	clients.ScaleOut[0].Clients++
	ops.ScaleOut[0].Ops--
	for name, cur := range map[string]*artifact.Artifact{
		"fingerprint drift": mkScaleOutArtifact("26623ab0ea675b43", 64, 2400, 0, 62000),
		"host drift":        mkScaleOutArtifact("ae4a32d1b737695a", 63, 2400, 0, 62000),
		"client drift":      clients,
		"ops drift":         ops,
		"tenant ops drift":  mkScaleOutArtifact("ae4a32d1b737695a", 64, 2399, 0, 62000),
		"tenant lost ops":   mkScaleOutArtifact("ae4a32d1b737695a", 64, 2400, 1, 62000),
	} {
		if _, pass := diff(base, cur, tol); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
	// A transport or tenant the baseline has never seen is structural drift.
	transport, tenant := mk(), mk()
	transport.ScaleOut[0].Transport = "ud"
	tenant.ScaleOut[0].Tenants[1].Tenant = "pindown"
	for name, cur := range map[string]*artifact.Artifact{"new transport": transport, "new tenant": tenant} {
		if _, pass := diff(base, cur, tol); pass {
			t.Fatalf("%s: expected hard failure", name)
		}
	}
}

// TestCommittedArtifactVerdicts pins the gate's verdict on every pair of
// committed artifacts at the CI tolerance: row i is the baseline, column j
// the current run. Each reference passes against itself with no warn row,
// since the artifact carries nothing host-dependent.
func TestCommittedArtifactVerdicts(t *testing.T) {
	names := []string{"pr8", "pr10"}
	want := [][]int{
		{0, 1},
		{1, 0},
	}
	path := func(name string) string { return filepath.Join("..", "..", "BENCH_"+name+".json") }
	for i, b := range names {
		for j, c := range names {
			if got := run([]string{"-count-tol", "0.10", path(b), path(c)}); got != want[i][j] {
				t.Errorf("baseline %s vs current %s: exit %d, want %d", b, c, got, want[i][j])
			}
		}
		a, err := readArtifact(path(b))
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := diff(a, a, 0.10)
		for _, r := range rows {
			if r.v != vOK {
				t.Errorf("%s vs itself: %s/%s verdict %v", b, r.scope, r.metric, r.v)
			}
		}
	}
}

// TestDiffMissingRowsFail checks that a baseline row absent from the
// current run fails in every keyed section present in both, while the
// experiment list and baseline-only sections stay a selection.
func TestDiffMissingRowsFail(t *testing.T) {
	load := func() *artifact.Artifact {
		a, err := readArtifact(filepath.Join("..", "..", "BENCH_pr10.json"))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := load()
	cur := load()
	cur.KV = cur.KV[:len(cur.KV)-1] // drop kv/pinned
	rows, pass := diff(base, cur, tol)
	if pass {
		t.Fatal("dropping kv/pinned passed the gate")
	}
	found := false
	for _, r := range rows {
		found = found || (r.scope == "kv/pinned" && r.v == vFail && r.note == "missing from current run")
	}
	if !found {
		t.Fatalf("no missing-row failure for kv/pinned:\n%+v", rows)
	}

	tenant := mkScaleOutArtifact("ae4a32d1b737695a", 64, 2400, 0, 62000)
	tenant.ScaleOut[0].Tenants = tenant.ScaleOut[0].Tenants[:1]
	if _, pass := diff(mkScaleOutArtifact("ae4a32d1b737695a", 64, 2400, 0, 62000), tenant, tol); pass {
		t.Fatal("dropping a scale-out tenant passed the gate")
	}

	subset := load()
	subset.Experiments = subset.Experiments[:len(subset.Experiments)-1] // drop "anatomy"
	subset.FaultAnatomy = nil
	if rows, pass := diff(base, subset, tol); !pass {
		t.Fatalf("omitted experiment or baseline-only section failed the gate:\n%+v", rows)
	}
}

// TestArtifactGateTags checks that the schema uses only the gate
// vocabulary the walker interprets and that every row type has one key.
func TestArtifactGateTags(t *testing.T) {
	var check func(typ reflect.Type, row bool)
	check = func(typ reflect.Type, row bool) {
		keys := 0
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			gate, where := f.Tag.Get("gate"), typ.Name()+"."+f.Name
			switch k := f.Type.Kind(); {
			case k == reflect.Slice:
				if gate != "" && gate != "subset" {
					t.Errorf("%s: gate %q on a row slice", where, gate)
				}
				check(f.Type.Elem(), true)
			case k == reflect.Pointer || k == reflect.Struct:
				if gate != "" {
					t.Errorf("%s: gate %q on a section", where, gate)
				}
				if k == reflect.Pointer {
					check(f.Type.Elem(), false)
				} else {
					check(f.Type, false)
				}
			case gate == "key":
				keys++
			case gate == "tol":
				if _, ok := number(reflect.Zero(f.Type)); !ok {
					t.Errorf("%s: gate %q on a non-numeric field", where, gate)
				}
			case gate != "" && gate != "exact" && gate != "warn":
				t.Errorf("%s: unknown gate %q", where, gate)
			}
		}
		if row && keys != 1 {
			t.Errorf("%s: %d key fields, want 1", typ.Name(), keys)
		}
	}
	check(reflect.TypeOf(artifact.Artifact{}), false)
}

func TestRelDelta(t *testing.T) {
	if d := relDelta(100, 110); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("relDelta = %v, want 0.1", d)
	}
	if d := relDelta(0, 0); d != 0 {
		t.Fatalf("relDelta(0,0) = %v, want 0", d)
	}
	if d := relDelta(0, 5); !math.IsInf(d, 1) {
		t.Fatalf("relDelta(0,5) = %v, want +Inf", d)
	}
}

func TestWriteTableAligned(t *testing.T) {
	var b bytes.Buffer
	writeTable(&b, []row{{scope: "fig3", metric: "events", base: "10", cur: "10", delta: "+0.0%", v: vOK}})
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "scope") {
		t.Fatalf("table shape:\n%s", b.String())
	}
}

// TestRunEndToEnd drives the CLI surface: diff two artifact files on disk
// and check the exit codes.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := `{"engine_bench":{"allocs_per_op":0},"experiments":[{"name":"fig3","engines":3,"events":1000}]}`
	drifted := `{"engine_bench":{"allocs_per_op":0},"experiments":[{"name":"fig3","engines":3,"events":2000}]}`
	base := write("base.json", good)
	same := write("same.json", good)
	bad := write("bad.json", drifted)

	if code := run([]string{base, same}); code != 0 {
		t.Fatalf("identical diff exit = %d, want 0", code)
	}
	if code := run([]string{"-baseline", base, same}); code != 0 {
		t.Fatalf("-baseline spelling exit = %d, want 0", code)
	}
	if code := run([]string{base, bad}); code != 1 {
		t.Fatalf("drifted diff exit = %d, want 1", code)
	}
	if code := run([]string{base}); code != 2 {
		t.Fatalf("usage error exit = %d, want 2", code)
	}
	if code := run([]string{base, write("empty.json", `{}`)}); code != 2 {
		t.Fatalf("malformed artifact exit = %d, want 2", code)
	}
	// A renamed section is an unknown field, not a silently skipped gate.
	renamed := strings.Replace(good, `"experiments"`,
		`"fault_anatomy_rows":[{"policy":"odp","faults":1}],"experiments"`, 1)
	if code := run([]string{base, write("renamed.json", renamed)}); code != 2 {
		t.Fatalf("unknown-field artifact exit = %d, want 2", code)
	}
	// An artifact that still carries the retired wall-clock or host fields is
	// rejected rather than half-gated.
	for name, legacy := range map[string]string{
		"wall_ms":    strings.Replace(good, `"engines":3`, `"wall_ms":50,"engines":3`, 1),
		"gomaxprocs": strings.Replace(good, `{"engine_bench"`, `{"gomaxprocs":8,"engine_bench"`, 1),
	} {
		if code := run([]string{base, write(name+".json", legacy)}); code != 2 {
			t.Fatalf("artifact with %s exit = %d, want 2", name, code)
		}
	}

	series := write("series.csv", "# series interval_ns=1000 samples=2 metrics=1\ntime_us,m.a\n0,1\n1,2\n")
	if code := run([]string{"-render", series}); code != 0 {
		t.Fatalf("render exit = %d, want 0", code)
	}
	if code := run([]string{"-render", filepath.Join(dir, "missing.csv")}); code != 2 {
		t.Fatalf("render missing-file exit = %d, want 2", code)
	}
}
