// Package summary is the shared function-summary layer under the
// interprocedural analyzers (detflow, noalloc, probepure). It enumerates a
// package's function declarations, resolves each call site to its static
// callee, and runs the bottom-up taint fixpoint that each analyzer
// instantiates with its own local seed (per-function syntactic findings)
// and external lookup (facts imported from dependency packages, std-lib
// allowlists). Everything is deterministic: declarations in file order,
// call edges in source order, first tainting reason wins.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Decl is one analyzed function or method declaration with a body.
type Decl struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
}

// Edge is one call site inside a declaration. Fn is the static callee, or
// nil for dynamic calls (func values, interface methods) — builtins and
// type conversions produce no edge at all.
type Edge struct {
	Pos  token.Pos
	Call *ast.CallExpr
	Fn   *types.Func
}

// Graph is the package-local call structure: Decls in file/source order,
// Edges[i] the call sites of Decls[i] in source order.
type Graph struct {
	Decls []Decl
	Index map[*types.Func]int
	Edges [][]Edge
}

// Build constructs the call graph of files. With foldFuncLits, calls made
// inside function literals are attributed to the enclosing declaration
// (the conservative choice for reachability-style analyses: creating the
// closure pins everything it could do); without it, literal bodies are
// skipped and the caller analyzes them separately.
func Build(info *types.Info, files []*ast.File, foldFuncLits bool) *Graph {
	g := &Graph{Index: make(map[*types.Func]int)}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Index[fn] = len(g.Decls)
			g.Decls = append(g.Decls, Decl{Fn: fn, Decl: fd})
			g.Edges = append(g.Edges, CallEdges(info, fd.Body, foldFuncLits))
		}
	}
	return g
}

// CallEdges collects the call sites under node in source order, resolving
// static callees. See Build for foldFuncLits.
func CallEdges(info *types.Info, node ast.Node, foldFuncLits bool) []Edge {
	var edges []Edge
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && !foldFuncLits && n != node {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, isCall := StaticCallee(info, call)
		if !isCall {
			return true // builtin or type conversion
		}
		edges = append(edges, Edge{Pos: call.Lparen, Call: call, Fn: fn})
		return true
	})
	return edges
}

// StaticCallee resolves call to its compile-time target. isCall is false
// for builtins and type conversions (no function runs); fn is nil, with
// isCall true, for dynamic calls — func values, func-typed fields, and
// interface method calls — whose target cannot be known statically. A call
// into a generic function or type resolves to the generic declaration
// (Origin), the object that owns the Decl and the facts.
func StaticCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, isCall bool) {
	fn, isCall = staticCallee(info, call)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn, isCall
}

func staticCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, isCall bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil, false // conversion like []byte(s) or T(x)
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return obj, true
		case *types.Builtin:
			return nil, false
		case *types.TypeName:
			return nil, false
		default:
			return nil, true // func-typed variable
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fnObj, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, true // func-typed field
			}
			if types.IsInterface(sel.Recv()) {
				return nil, true // interface method: dynamic
			}
			return fnObj, true
		}
		// Qualified reference: pkg.F, pkg.T (conversion), or pkg.Var.
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return obj, true
		case *types.TypeName:
			return nil, false
		default:
			return nil, true
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is scanned in place by
		// whichever traversal found this call.
		return nil, false
	default:
		return nil, true
	}
}

// Fixpoint computes one taint reason per declaration ("" = clean). seed
// gives Decls[i]'s own syntactic reason; external resolves an edge whose
// callee is not declared in this package (or is dynamic); skip, if
// non-nil, drops individual edges (annotation escapes). Propagation over
// local edges prefixes the callee's name, so reasons read as call chains.
func (g *Graph) Fixpoint(
	seed func(i int) string,
	external func(e Edge) string,
	skip func(i int, e Edge) bool,
) []string {
	reasons := make([]string, len(g.Decls))
	for i := range g.Decls {
		reasons[i] = seed(i)
	}
	for changed := true; changed; {
		changed = false
		for i := range g.Decls {
			if reasons[i] != "" {
				continue
			}
			for _, e := range g.Edges[i] {
				if skip != nil && skip(i, e) {
					continue
				}
				var r string
				if e.Fn != nil {
					if j, ok := g.Index[e.Fn]; ok {
						if reasons[j] != "" {
							r = Chain(FuncLabel(e.Fn), reasons[j])
						}
					} else {
						r = external(e)
					}
				} else {
					r = external(e)
				}
				if r != "" {
					reasons[i] = r
					changed = true
					break
				}
			}
		}
	}
	return reasons
}

// maxChain bounds a propagated reason so diagnostics stay one readable
// line even through deep call chains.
const maxChain = 160

// Chain prefixes a propagated reason with the callee step.
func Chain(step, reason string) string {
	s := step + " → " + reason
	if len(s) > maxChain {
		s = s[:maxChain-1] + "…"
	}
	return s
}

// FuncLabel names fn for diagnostics: "F" for package-level functions,
// "T.M" for methods (pointer receivers dereferenced).
func FuncLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return name
}

// FuncKey names fn the way the driver's fact serialization does: "Name"
// for package-level functions, "Recv.Name" for methods. The noalloc
// required-annotation registry is keyed by this form.
func FuncKey(fn *types.Func) string {
	return FuncLabel(fn)
}
