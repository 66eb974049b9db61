package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"npf/internal/analysis/directive"
)

const src = `package p

func f() {
	a := 1 //npf:orderinvariant
	//npf:wallclock — reviewed
	b := 2
	c := 3 // npf:xengine (not a directive: space after //)
	//npf: (empty name, ignored)
	d := 4
	_, _, _, _ = a, b, c, d
}
`

func parse(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// posOnLine returns a position on the given 1-based line.
func posOnLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	tf := fset.File(f.Pos())
	return tf.LineStart(line)
}

func TestDirectives(t *testing.T) {
	fset, f := parse(t)
	m := directive.ForFiles(fset, []*ast.File{f})
	cases := []struct {
		name string
		line int
		want bool
	}{
		{"orderinvariant", 4, true},  // trailing placement, same line
		{"orderinvariant", 5, true},  // covers the next line too
		{"orderinvariant", 6, false}, // but not two lines down
		{"wallclock", 6, true},       // preceding placement
		{"wallclock", 4, false},
		{"xengine", 7, false},  // space after // is not a directive
		{"realtime", 4, false}, // different name
	}
	for _, c := range cases {
		if got := m.Allows(fset, c.name, posOnLine(fset, f, c.line)); got != c.want {
			t.Errorf("Allows(%q, line %d) = %v, want %v", c.name, c.line, got, c.want)
		}
	}
}
