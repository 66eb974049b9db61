// Package tracesafe defines an analyzer that keeps tracer access on the
// nil-safe path.
//
// A disabled tracer is a nil *trace.Tracer: every method is nil-safe, so
// instrumented hot paths cost one pointer comparison when tracing is off.
// The same contract covers every handle type the tracer hands out — Counter
// and Sampler are nil when obtained from a disabled tracer. Direct field access (t.MaxFaultEvents = ..., s.MaxSamples = ...) breaks
// that contract — it panics the moment tracing is disabled. Outside package
// trace, fields of these types may only be touched under an Enabled() guard
// (or an explicit //npf:tracesafe annotation); everything else goes through
// the nil-safe methods.
package tracesafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"npf/internal/analysis/directive"
)

const Doc = `require nil-safe tracer access outside package trace

A nil *trace.Tracer is the disabled state; methods are nil-safe but raw
field access panics. The same holds for every handle the tracer hands out
(Counter, Sampler). Guard direct field access with
Enabled() or annotate //npf:tracesafe.`

var Analyzer = &analysis.Analyzer{
	Name:     "tracesafe",
	Doc:      Doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// The trace package owns the representation.
	if path := pass.Pkg.Path(); path == "trace" || strings.HasSuffix(path, "/trace") {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directive.ForFiles(pass.Fset, pass.Files)
	ins.WithStack([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		sel := n.(*ast.SelectorExpr)
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		name, ok := traceHandle(selection.Recv())
		if !ok {
			return true
		}
		if dirs.Allows(pass.Fset, "tracesafe", sel.Pos()) {
			return true
		}
		if guardedByEnabled(pass, stack, sel.Pos()) {
			return true
		}
		noun := "handle"
		if name == "Tracer" {
			noun = "tracer"
		}
		pass.Reportf(sel.Pos(), "direct field access on *trace.%s panics when tracing is disabled (nil %s); guard with Enabled() or use the nil-safe methods", name, noun)
		return true
	})
	return nil, nil
}

// handleTypes is the set of trace types whose handles are nil when tracing
// is disabled: raw field access on any of them panics on the nil-safe path.
var handleTypes = map[string]bool{
	"Tracer":  true,
	"Counter": true,
	"Sampler": true,
}

// traceHandle reports whether t is one of the trace handle types (or a
// pointer to one), for any package named/aliased trace (the root package
// re-exports them), returning the type name.
func traceHandle(t types.Type) (string, bool) {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if !handleTypes[obj.Name()] || obj.Pkg() == nil {
		return "", false
	}
	path := obj.Pkg().Path()
	if path == "trace" || strings.HasSuffix(path, "/trace") {
		return obj.Name(), true
	}
	return "", false
}

// isTracer reports whether t is specifically trace.Tracer or *trace.Tracer
// (the only type carrying the Enabled() guard method).
func isTracer(t types.Type) bool {
	name, ok := traceHandle(t)
	return ok && name == "Tracer"
}

// guardedByEnabled reports whether pos sits in the body of an enclosing if
// statement whose condition calls Enabled() on a tracer.
func guardedByEnabled(pass *analysis.Pass, stack []ast.Node, pos token.Pos) bool {
	for _, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if pos < ifStmt.Body.Pos() || pos > ifStmt.Body.End() {
			continue // in the condition or the else branch, not under the guard
		}
		found := false
		ast.Inspect(ifStmt.Cond, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || callee.Sel.Name != "Enabled" {
				return true
			}
			if isTracer(pass.TypesInfo.TypeOf(callee.X)) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
