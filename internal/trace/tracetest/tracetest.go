// Package tracetest pins span views against golden files: a test renders
// each traced source's spans as one SpanSet line and compares the lines
// with a file under its testdata directory.
package tracetest

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
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
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wl := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wl) != len(got) {
		t.Errorf("%d sources, golden %s has %d", len(got), path, len(wl))
	}
	for i := 0; i < len(got) && i < len(wl); i++ {
		if got[i] != wl[i] {
			t.Errorf("span set changed:\n got  %s\n want %s", got[i], wl[i])
		}
	}
}
