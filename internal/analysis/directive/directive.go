// Package directive parses the repo's `//npf:` comment annotations — the
// escape hatches the npflint analyzers honour when a human has reviewed a
// construct the machine cannot prove safe.
//
// Vocabulary (see README "Static analysis"):
//
//	//npf:orderinvariant  maporder: this map iteration's effects are
//	                      independent of iteration order
//	//npf:wallclock       detflow: this wall-clock / environment
//	                      read (or call into a clock-reaching helper) is
//	                      intentional (host-side tooling, not sim state)
//	//npf:realtime        simtime: this signature intentionally carries a
//	                      wall-clock type (e.g. the sim.Duration converter)
//	//npf:tracesafe       tracesafe: this raw tracer field access is known
//	                      nil-safe
//	//npf:noalloc         noalloc: this function (and everything it
//	                      transitively calls) must contain no allocating
//	                      construct — the static allocation fence
//	//npf:allocok         noalloc: reviewed escape; on a line, exempts the
//	                      line's constructs; on a function declaration,
//	                      makes the whole function a trusted boundary
//	//npf:probepure       probepure: this sampler-probe registration is
//	                      reviewed read-only even though the analyzer
//	                      cannot prove it
//
// A directive applies to the source line it sits on and to the line
// immediately below it, so both trailing and preceding placement work:
//
//	//npf:orderinvariant — reads are commutative
//	for k, v := range m { ... }
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the comment prefix shared by all npf annotations.
const Prefix = "//npf:"

type lineKey struct {
	file string
	line int
}

// Map records, per annotation name, the set of source lines it covers
// across a set of files.
type Map struct {
	lines map[string]map[lineKey]bool
}

// ForFiles scans the files' comments and returns the directive coverage
// map. Like standard Go directives, an annotation must start its comment
// with no space after `//`.
func ForFiles(fset *token.FileSet, files []*ast.File) *Map {
	m := &Map{lines: make(map[string]map[lineKey]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, Prefix) {
					continue
				}
				name := strings.TrimPrefix(text, Prefix)
				if i := strings.IndexAny(name, " \t"); i >= 0 {
					name = name[:i]
				}
				if name == "" {
					continue
				}
				p := fset.Position(c.Pos())
				if m.lines[name] == nil {
					m.lines[name] = make(map[lineKey]bool)
				}
				// The directive covers its own line (trailing placement)
				// and the next line (preceding placement).
				m.lines[name][lineKey{p.Filename, p.Line}] = true
				m.lines[name][lineKey{p.Filename, p.Line + 1}] = true
			}
		}
	}
	return m
}

// Allows reports whether annotation name covers the line containing pos.
func (m *Map) Allows(fset *token.FileSet, name string, pos token.Pos) bool {
	set := m.lines[name]
	if set == nil {
		return false
	}
	p := fset.Position(pos)
	return set[lineKey{p.Filename, p.Line}]
}
