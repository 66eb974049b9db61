package driver

import "testing"

// TestSortDiagnostics pins the numeric sort the -json artifact depends on:
// x.go:9 sorts before x.go:10 (a lexicographic sort on the formatted Pos
// would invert them), files group first, and (analyzer, message) break
// position ties deterministically.
func TestSortDiagnostics(t *testing.T) {
	d := func(file string, line, col int, analyzer, msg string) Diagnostic {
		return Diagnostic{Analyzer: analyzer, Message: msg, file: file, line: line, col: col}
	}
	diags := []Diagnostic{
		d("b.go", 1, 1, "maporder", "z"),
		d("a.go", 10, 1, "maporder", "later line"),
		d("a.go", 9, 2, "maporder", "earlier line"),
		d("a.go", 9, 2, "detflow", "tie broken by analyzer"),
	}
	SortDiagnostics(diags)
	var got []string
	for _, x := range diags {
		got = append(got, x.Message)
	}
	want := []string{"tie broken by analyzer", "earlier line", "later line", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort order = %v; want %v", got, want)
		}
	}
}
