// Package tracetest pins deterministic outputs against golden files under
// a package's testdata directory: span views as one SpanSet line per
// traced source, and rendered experiment outputs as one Output line each.
package tracetest

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync" //npf:xengine — test support: serializes manifest rewrites across parallel tests, never an engine
	"testing"

	"npf/internal/trace"
)

// SpanSet condenses spans as a set, IDs and order ignored: the span count,
// an FNV-1a hash of the sorted "cat/name start end k=v..." lines, and the
// count per cat/name.
func SpanSet(spans []trace.Span) string {
	lines := make([]string, len(spans))
	kinds := map[string]int{}
	for i, s := range spans {
		var b strings.Builder
		fmt.Fprintf(&b, "%s/%s %d %d", s.Cat, s.Name, s.Start, s.End)
		for _, a := range s.Args {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Val)
		}
		lines[i] = b.String()
		kinds[s.Cat+"/"+s.Name]++
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	out := fmt.Sprintf("n=%d %016x", len(spans), h.Sum64())
	for _, k := range names {
		out += fmt.Sprintf(" %s:%d", k, kinds[k])
	}
	return out
}

// Check compares got, one "source SpanSet" line per traced source, with
// the golden file at path; with update it rewrites the file instead.
func Check(t testing.TB, path string, got []string, update bool) {
	t.Helper()
	text := strings.Join(got, "\n") + "\n"
	if update {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wl := readLines(t, path)
	if len(wl) != len(got) {
		t.Errorf("%d sources, golden %s has %d", len(got), path, len(wl))
	}
	for i := 0; i < len(got) && i < len(wl); i++ {
		if got[i] != wl[i] {
			t.Errorf("span set changed:\n got  %s\n want %s", got[i], wl[i])
		}
	}
}

// readLines returns the lines of the golden file at path.
func readLines(t testing.TB, path string) []string {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
}

// Output is one run of an experiment, scenario or command as one line of
// an output manifest.
type Output struct {
	Name    string // what ran
	Sizing  string // how big: a sizing name, a seed or a run's parameters
	Flag    int    // the thread budget it ran under (bench.Scope.Workers)
	Engines int    // engines the run built
	Events  uint64 // events they executed
	Render  string // the text the run prints
	Rows    []byte // its -json artifact rows, nil when it has none
}

// line formats o as "name/sizing/eN engines=E events=V render=R rows=W",
// with R and W FNV-64a digests ("-" for no rows). Its first field is the
// key CheckOutputs matches by.
func (o Output) line() string {
	rows := "-"
	if o.Rows != nil {
		rows = fmt.Sprintf("%016x", fnv64(o.Rows))
	}
	return fmt.Sprintf("%s/%s/e%d engines=%d events=%d render=%016x rows=%s",
		o.Name, o.Sizing, o.Flag, o.Engines, o.Events, fnv64([]byte(o.Render)), rows)
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// manifestMu serializes CheckOutputs, so parallel tests that share a
// manifest can rewrite their lines under -update without losing others'.
var manifestMu sync.Mutex

// CheckOutputs compares each output's line with the manifest line of the
// same key (its first field), so tests can share one manifest and a
// skipped test leaves its lines unchecked. A changed or missing line fails
// naming its key. With update it rewrites those lines instead, keeping the
// others, in key order. It is safe for parallel tests.
func CheckOutputs(t testing.TB, path string, update bool, outs ...Output) {
	t.Helper()
	manifestMu.Lock()
	defer manifestMu.Unlock()
	lines := map[string]string{}
	if _, err := os.Stat(path); err == nil || !update {
		for _, l := range readLines(t, path) {
			lines[key(l)] = l
		}
	}
	for _, o := range outs {
		got := o.line()
		switch want, ok := lines[key(got)]; {
		case update:
			lines[key(got)] = got
		case !ok:
			t.Errorf("%s: output %s has no line; rerun with -update to add it", path, key(got))
		case want != got:
			t.Errorf("%s: output %s changed:\n got  %s\n want %s", path, key(got), got, want)
		}
	}
	if update {
		var all []string
		for _, l := range lines {
			all = append(all, l)
		}
		sort.Strings(all)
		if err := os.WriteFile(path, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func key(line string) string {
	k, _, _ := strings.Cut(line, " ")
	return k
}
