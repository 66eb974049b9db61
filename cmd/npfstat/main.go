// Command npfstat inspects npfbench artifacts: it renders the deterministic
// time-series CSV written by `npfbench -series` as terminal sparklines, and
// diffs two `-json` result files with per-metric relative-delta thresholds
// and a pass/fail verdict — the regression gate CI runs against
// BENCH_pr10.json (the quick suite) and BENCH_pr8.json (the scale-out
// fleet).
//
// Render a run's dynamics:
//
//	npfstat -render out.csv
//
// Diff a run against a baseline (two spellings):
//
//	npfstat -baseline BENCH_pr10.json out.json
//	npfstat BENCH_pr10.json out.json
//
// Diff semantics: every field's gate is the gate tag on its type in
// internal/artifact, whose package doc tables the vocabulary; npfstat
// walks the tags and names no section. Artifacts decode strictly: an
// unknown field is a usage error, so a renamed section cannot skip its
// gate. Exit codes: 0 pass, 1 fail, 2 usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"

	"npf/internal/artifact"
	"npf/internal/trace"
)

func readArtifact(path string) (*artifact.Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	// A renamed or misspelled section or field must not drop its gate
	// silently.
	dec.DisallowUnknownFields()
	var a artifact.Artifact
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(a.Experiments) == 0 {
		return nil, fmt.Errorf("%s: no experiments (not an npfbench -json artifact?)", path)
	}
	return &a, nil
}

// verdict classifies one compared metric.
type verdict int

const (
	vOK verdict = iota
	vWarn
	vFail
)

func (v verdict) String() string {
	switch v {
	case vWarn:
		return "warn"
	case vFail:
		return "FAIL"
	}
	return "ok"
}

// row is one line of the delta table.
type row struct {
	scope  string // artifact path: section, then row keys
	metric string
	base   string
	cur    string
	delta  string
	v      verdict
	note   string
}

// relDelta returns (cur-base)/base, treating a zero base specially.
func relDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - base) / base
}

func fmtDelta(d float64) string {
	if math.IsInf(d, 0) {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", d*100)
}

// diffConfig holds the gate thresholds.
type diffConfig struct {
	countTol     float64 // hard-fail threshold on gate:"tol" fields
	timingTol    float64 // warn threshold on gate:"timing" fields
	failOnTiming bool    // promote timing warnings to failures
}

// differ accumulates the delta table of one comparison.
type differ struct {
	cfg  diffConfig
	rows []row
	pass bool
}

// diff compares cur against base and returns the table plus overall pass.
// The gates are the artifact types' gate tags (see internal/artifact).
func diff(base, cur *artifact.Artifact, cfg diffConfig) ([]row, bool) {
	d := &differ{cfg: cfg, pass: true}
	d.walk("", reflect.ValueOf(base).Elem(), reflect.ValueOf(cur).Elem())
	return d.rows, d.pass
}

func (d *differ) add(r row) {
	if r.v == vFail {
		d.pass = false
	}
	d.rows = append(d.rows, r)
}

// walk gates every field of the struct pair (b, c) under scope, recursing
// into nested structs and row slices.
func (d *differ) walk(scope string, b, c reflect.Value) {
	for i := 0; i < c.NumField(); i++ {
		f := c.Type().Field(i)
		gate := f.Tag.Get("gate")
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		sub := name
		if scope != "" {
			sub = scope + "/" + name
		}
		bf, cf := b.Field(i), c.Field(i)
		switch f.Type.Kind() {
		case reflect.Slice:
			d.match(sub, gate == "subset", bf, cf)
		case reflect.Pointer:
			if cf.IsNil() {
				continue // section not in the current run
			}
			if bf.IsNil() {
				bf = reflect.New(f.Type.Elem())
			}
			d.walk(sub, bf.Elem(), cf.Elem())
		case reflect.Struct:
			d.walk(sub, bf, cf)
		default:
			if gate != "" && gate != "key" {
				d.metric(scope, name, gate, bf, cf)
			}
		}
	}
}

// match pairs the rows of one section by key and walks each pair. Rows
// only in the current run fail; rows only in the baseline fail too unless
// the section is a subset.
func (d *differ) match(section string, subset bool, b, c reflect.Value) {
	if c.Len() == 0 {
		return // section not in the current run
	}
	base := make(map[string]reflect.Value, b.Len())
	for i := 0; i < b.Len(); i++ {
		base[rowKey(b.Index(i))] = b.Index(i)
	}
	seen := make(map[string]bool, c.Len())
	for i := 0; i < c.Len(); i++ {
		k := rowKey(c.Index(i))
		seen[k] = true
		scope := section + "/" + k
		if br, ok := base[k]; ok {
			d.walk(scope, br, c.Index(i))
			continue
		}
		d.add(row{scope: scope, metric: "presence", base: "-", cur: "present",
			delta: "new", v: vFail, note: "not in baseline"})
	}
	if subset {
		return
	}
	for i := 0; i < b.Len(); i++ {
		if k := rowKey(b.Index(i)); !seen[k] {
			d.add(row{scope: section + "/" + k, metric: "presence", base: "present", cur: "-",
				v: vFail, note: "missing from current run"})
		}
	}
}

// rowKey returns the value of a row's gate:"key" field.
func rowKey(r reflect.Value) string {
	for i := 0; i < r.NumField(); i++ {
		if r.Type().Field(i).Tag.Get("gate") == "key" {
			return fmt.Sprint(r.Field(i).Interface())
		}
	}
	panic("npfstat: " + r.Type().String() + " has no gate:\"key\" field")
}

// metric gates one scalar field pair. Non-numeric values have no relative
// delta: a change counts as unbounded.
func (d *differ) metric(scope, name, gate string, b, c reflect.Value) {
	r := row{scope: scope, metric: name, base: format(b), cur: format(c)}
	changed := !b.Equal(c)
	var dlt float64
	if bn, ok := number(b); ok {
		cn, _ := number(c)
		dlt = relDelta(bn, cn)
		r.delta = fmtDelta(dlt)
	} else if changed {
		dlt = math.Inf(1)
	}
	switch gate {
	case "exact":
		if changed {
			r.v, r.note = vFail, "changed (exact gate)"
		}
	case "tol":
		if math.Abs(dlt) > d.cfg.countTol {
			r.v, r.note = vFail, fmt.Sprintf("beyond count-tol %.2f", d.cfg.countTol)
		}
	case "timing":
		if math.Abs(dlt) > d.cfg.timingTol {
			r.v, r.note = vWarn, "timing (load-dependent)"
			if d.cfg.failOnTiming {
				r.v = vFail
			}
		}
	case "warn":
		if changed {
			r.v, r.note = vWarn, "changed (informational)"
		}
	default:
		panic(fmt.Sprintf("npfstat: unknown gate tag %q on %s", gate, name))
	}
	d.add(r)
}

// number returns v as a float64 when v is numeric.
func number(v reflect.Value) (float64, bool) {
	switch {
	case v.CanFloat():
		return v.Float(), true
	case v.CanInt():
		return float64(v.Int()), true
	case v.CanUint():
		return float64(v.Uint()), true
	}
	return 0, false
}

func format(v reflect.Value) string {
	if v.CanFloat() {
		return fmt.Sprintf("%.1f", v.Float())
	}
	return fmt.Sprint(v.Interface())
}

// writeTable renders the delta table with aligned columns.
func writeTable(w io.Writer, rows []row) {
	sw, mw := len("scope"), len("metric")
	for _, r := range rows {
		sw, mw = max(sw, len(r.scope)), max(mw, len(r.metric))
	}
	fmt.Fprintf(w, "%-*s %-*s %16s %16s %8s  %-4s %s\n",
		sw, "scope", mw, "metric", "baseline", "current", "delta", "", "")
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s %-*s %16s %16s %8s  %-4s %s\n",
			sw, r.scope, mw, r.metric, r.base, r.cur, r.delta, r.v, r.note)
	}
}

// render loads a -series CSV and prints each section as sparklines.
func render(path string, width int) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}
	defer f.Close()
	set, err := trace.ReadSeriesSet(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}
	if len(set) == 0 {
		fmt.Fprintf(os.Stderr, "npfstat: %s: no series sections\n", path)
		return 2
	}
	for i, s := range set {
		if len(s.Times) == 0 {
			continue
		}
		fmt.Printf("-- section %d/%d --\n", i+1, len(set))
		s.WriteSparklines(os.Stdout, width)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("npfstat", flag.ContinueOnError)
	renderPath := fs.String("render", "", "render a -series CSV as terminal sparklines")
	width := fs.Int("width", 60, "sparkline width for -render")
	baseline := fs.String("baseline", "", "baseline -json artifact to diff against")
	countTol := fs.Float64("count-tol", 0.05, "hard-fail threshold on relative deltas of tolerance-gated counts and percentiles (kv, fault anatomy, scale-out)")
	timingTol := fs.Float64("timing-tol", 0.5, "warn threshold on relative timing deltas (wall clock, events/sec, ns/op, speedup)")
	failOnTiming := fs.Bool("fail-on-timing", false, "treat timing warnings as failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *renderPath != "" {
		return render(*renderPath, *width)
	}

	var basePath, curPath string
	switch rest := fs.Args(); {
	case *baseline != "" && len(rest) == 1:
		basePath, curPath = *baseline, rest[0]
	case *baseline == "" && len(rest) == 2:
		basePath, curPath = rest[0], rest[1]
	default:
		fmt.Fprintln(os.Stderr, "usage: npfstat [-render series.csv] | [-baseline base.json] cur.json | base.json cur.json")
		return 2
	}

	base, err := readArtifact(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}
	cur, err := readArtifact(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npfstat: %v\n", err)
		return 2
	}

	rows, pass := diff(base, cur, diffConfig{
		countTol: *countTol, timingTol: *timingTol, failOnTiming: *failOnTiming,
	})
	fmt.Printf("npfstat: %s (baseline) vs %s\n", basePath, curPath)
	writeTable(os.Stdout, rows)
	if !pass {
		fmt.Println("verdict: FAIL")
		return 1
	}
	fmt.Println("verdict: PASS")
	return 0
}
