// Package noalloc defines the static allocation fence: a function
// annotated //npf:noalloc — and everything it transitively calls, across
// packages — must contain no allocating construct. This is the static
// counterpart of the runtime testing.AllocsPerRun gates: the runtime gates
// prove the benched path allocation-free, the fence proves it on all
// paths, and the Required registry ties the two together by demanding the
// annotation stays on the gated hot paths (so deleting the annotation
// fails CI rather than silently narrowing the contract).
//
// Flagged constructs: make/new, append (it may grow the backing array),
// heap composite literals (&T{}, map/slice literals), variable-capturing
// closures, interface boxing (calls, assignments, returns, conversions),
// string concatenation and string<->slice conversions, map assignment,
// go statements, any call into fmt, and calls whose allocation behavior
// cannot be proven (dynamic calls, unanalyzed packages).
//
// Escapes: a line annotated //npf:allocok is exempt (reviewed boundary —
// e.g. a pool refill or an append that reuses the slice's own backing),
// and a function annotated //npf:allocok is a trusted boundary the fence
// does not enter. Escaped constructs are also dropped from the function's
// exported Allocates fact, so a reviewed hot-path helper stays callable
// from fences in other packages.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"npf/internal/analysis/directive"
	"npf/internal/analysis/summary"
)

const Doc = `enforce the //npf:noalloc static allocation fence

Functions annotated //npf:noalloc, and everything they transitively call,
are rejected if they contain allocating constructs (make/new, growing
append, closure capture, interface boxing, string concat, fmt, map
literals). Annotate reviewed lines //npf:allocok. The registry of
runtime-gated hot paths (sim.Engine scheduling, the packet paths, the
trace fault-record methods, workload.Source draws) must keep their
annotations: removing one is itself a finding.`

var Analyzer = &analysis.Analyzer{
	Name:      "noalloc",
	Doc:       Doc,
	FactTypes: []analysis.Fact{(*Allocates)(nil), (*Analyzed)(nil)},
	Run:       run,
}

// Allocates marks a function containing an (unescaped) allocating
// construct; Why says which, as a call chain for transitive cases.
type Allocates struct {
	Why string
}

// AFact marks Allocates as a serializable analysis fact.
func (*Allocates) AFact() {}

// Analyzed is a package fact: the package went through noalloc, so a
// function there *without* an Allocates fact is proven allocation-free.
// Packages without it (std lib, vendored code) are unknown and rejected
// inside fences unless allowlisted.
type Analyzed struct{}

// AFact marks Analyzed as a serializable analysis fact.
func (*Analyzed) AFact() {}

// Required lists, per package, the runtime-alloc-gated hot-path functions
// ("Name" or "Recv.Name") that must stay annotated //npf:noalloc. These
// are exactly the paths the AllocsPerRun/benchmark gates measure; the
// static fence and the runtime gates cross-check each other through this
// table.
var Required = map[string][]string{
	"npf/internal/sim": {
		"Engine.At", "Engine.After", "Engine.AtArg", "Engine.AfterArg",
		"Engine.Cancel", "Engine.schedule",
	},
	"npf/internal/fabric": {
		"port.enqueue", "port.kick",
	},
	"npf/internal/iommu": {
		"iotlb.hit", "iotlb.install", "iotlb.invalidate",
	},
	"npf/internal/mem": {
		"PageTable.Get", "PageTable.Lookup", "PageTable.Span",
		"AddressSpace.lruPush", "AddressSpace.lruRemove", "AddressSpace.TouchResident",
	},
	"npf/internal/nic": {
		"TxQueue.kick",
	},
	"npf/internal/rc": {
		"HCA.take", "HCA.post",
		"QP.PostSend", "QP.PostRecv", "QP.handleAck", "QP.handleData",
	},
	"npf/internal/tcp": {
		"Stack.transmit",
		"Conn.Send", "Conn.trySend", "Conn.handleAck",
	},
	"npf/internal/trace": {
		"Tracer.FaultMinted", "Tracer.FaultStageAt", "Tracer.FaultDone",
		"Tracer.FaultContext",
	},
	"npf/internal/workload": {
		"Source.NextOp", "Source.NextArrival",
	},
}

// allowedPkgs are unanalyzed packages whose functions are known
// allocation-free (pure arithmetic).
var allowedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// finding is one allocating construct at a position.
type finding struct {
	pos  token.Pos
	what string
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := directive.ForFiles(pass.Fset, pass.Files)
	g := summary.Build(pass.TypesInfo, pass.Files, true)

	fenced := make([]bool, len(g.Decls))  // //npf:noalloc roots
	trusted := make([]bool, len(g.Decls)) // //npf:allocok functions
	constructs := make([][]finding, len(g.Decls))
	for i, d := range g.Decls {
		fenced[i] = dirs.Allows(pass.Fset, "noalloc", d.Decl.Pos())
		trusted[i] = dirs.Allows(pass.Fset, "allocok", d.Decl.Pos())
		if !trusted[i] {
			constructs[i] = scanConstructs(pass, dirs, d.Decl)
		}
	}

	external := func(e summary.Edge) string { return externalWhy(pass, e) }
	skip := func(i int, e summary.Edge) bool {
		if trusted[i] {
			return true
		}
		return dirs.Allows(pass.Fset, "allocok", e.Pos)
	}
	reasons := g.Fixpoint(func(i int) string {
		if trusted[i] || len(constructs[i]) == 0 {
			return ""
		}
		return constructs[i][0].what
	}, external, skip)

	for i, d := range g.Decls {
		if reasons[i] != "" {
			pass.ExportObjectFact(d.Fn, &Allocates{Why: reasons[i]})
		}
	}
	pass.ExportPackageFact(&Analyzed{})

	checkRequired(pass, g, fenced)

	// Fence walk: from each //npf:noalloc root, report every unescaped
	// allocating construct and unprovable call in the reachable
	// same-package subgraph. Constructs are reported at their own
	// position (deduplicated across overlapping fences), naming the
	// fence root so the chain is actionable.
	reported := make(map[token.Pos]bool)
	inFence := make(map[int]bool)
	for root, isRoot := range fenced {
		if !isRoot {
			continue
		}
		rootLabel := summary.FuncLabel(g.Decls[root].Fn)
		queue := []int{root}
		visited := map[int]bool{root: true}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			inFence[i] = true
			for _, f := range constructs[i] {
				if reported[f.pos] {
					continue
				}
				reported[f.pos] = true
				pass.Reportf(f.pos, "%s inside //npf:noalloc fence of %s (annotate the line //npf:allocok if reviewed)", f.what, rootLabel)
			}
			for _, e := range g.Edges[i] {
				if dirs.Allows(pass.Fset, "allocok", e.Pos) {
					continue
				}
				if e.Fn != nil {
					if j, ok := g.Index[e.Fn]; ok {
						if !trusted[j] && !visited[j] {
							visited[j] = true
							queue = append(queue, j)
						}
						continue
					}
				}
				if why := externalWhy(pass, e); why != "" && !reported[e.Pos] {
					reported[e.Pos] = true
					pass.Reportf(e.Pos, "%s inside //npf:noalloc fence of %s (annotate the line //npf:allocok if reviewed)", why, rootLabel)
				}
			}
		}
	}
	return nil, nil
}

// checkRequired enforces the hot-path registry: the functions listed for
// this package must exist and carry //npf:noalloc.
func checkRequired(pass *analysis.Pass, g *summary.Graph, fenced []bool) {
	req, ok := Required[pass.Pkg.Path()]
	if !ok {
		return
	}
	have := make(map[string]int, len(g.Decls))
	for i, d := range g.Decls {
		have[summary.FuncKey(d.Fn)] = i
	}
	for _, key := range req {
		i, ok := have[key]
		if !ok {
			pass.Reportf(pass.Files[0].Package, "registered hot path %s.%s not found: update the noalloc Required registry to follow the refactor", pass.Pkg.Path(), key)
			continue
		}
		if !fenced[i] {
			pass.Reportf(g.Decls[i].Decl.Pos(), "%s is a runtime-gated hot path and must carry //npf:noalloc (the static fence cross-checks the AllocsPerRun/bench gates)", key)
		}
	}
}

// externalWhy explains why a call leaving the package (or with no static
// callee) cannot be admitted into a fence; "" admits it.
func externalWhy(pass *analysis.Pass, e summary.Edge) string {
	if e.Fn == nil {
		return "dynamic call (allocation behavior unknown)"
	}
	fn := e.Fn
	if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		// Same-package callees are covered by the fence walk; bodyless
		// declarations are vanishingly rare here and treated as clean.
		return ""
	}
	var af Allocates
	if pass.ImportObjectFact(fn, &af) {
		return "call to " + crossLabel(fn) + " allocates: " + af.Why
	}
	path := fn.Pkg().Path()
	if allowedPkgs[path] {
		return ""
	}
	var an Analyzed
	if pass.ImportPackageFact(fn.Pkg(), &an) {
		return "" // analyzed and carries no Allocates fact: proven clean
	}
	if path == "fmt" {
		return "call to " + crossLabel(fn) + " (fmt allocates)"
	}
	return "call to " + crossLabel(fn) + " (package " + path + " has no allocation summaries)"
}

func crossLabel(fn *types.Func) string {
	label := summary.FuncLabel(fn)
	if fn.Pkg() != nil {
		label = fn.Pkg().Name() + "." + label
	}
	return label
}

// scanConstructs finds the allocating constructs in one declaration,
// skipping lines annotated //npf:allocok. Constructs inside function
// literals are attributed to the enclosing declaration: creating the
// closure inside a fence pins its body to the same contract.
func scanConstructs(pass *analysis.Pass, dirs *directive.Map, fd *ast.FuncDecl) []finding {
	info := pass.TypesInfo
	var out []finding
	add := func(pos token.Pos, what string) {
		if dirs.Allows(pass.Fset, "allocok", pos) {
			return
		}
		out = append(out, finding{pos: pos, what: what})
	}

	// Function-literal ranges, innermost-last, for attributing returns to
	// the right signature.
	type litScope struct {
		lit *ast.FuncLit
		sig *types.Signature
	}
	var lits []litScope
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if sig, ok := info.TypeOf(lit).(*types.Signature); ok {
				lits = append(lits, litScope{lit, sig})
			}
		}
		return true
	})
	declSig, _ := info.TypeOf(fd.Name).(*types.Signature)
	sigAt := func(pos token.Pos) *types.Signature {
		sig := declSig
		for _, ls := range lits { // later entries are inner on ties
			if ls.lit.Pos() <= pos && pos <= ls.lit.End() {
				sig = ls.sig
			}
		}
		return sig
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			scanCall(info, n, add)
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			case *types.Slice:
				add(n.Pos(), "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n) && !isConstant(info, n) {
				add(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			scanAssign(info, n, add)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) && boxes(info, info.TypeOf(name), n.Values[i]) {
					add(n.Values[i].Pos(), "interface boxing allocates")
				}
			}
		case *ast.ReturnStmt:
			sig := sigAt(n.Pos())
			if sig == nil || sig.Results() == nil || len(n.Results) != sig.Results().Len() {
				return true // naked or multi-value-call return
			}
			for i, res := range n.Results {
				if boxes(info, sig.Results().At(i).Type(), res) {
					add(res.Pos(), "interface boxing allocates")
				}
			}
		case *ast.FuncLit:
			if capturesVariables(info, n) {
				add(n.Pos(), "closure captures variables (allocates)")
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
	return out
}

// scanCall flags builtins (make/new/append), allocating conversions, and
// interface boxing of arguments.
func scanCall(info *types.Info, call *ast.CallExpr, add func(token.Pos, string)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && !isConstant(info, call) {
			if srcTV, ok := info.Types[call.Args[0]]; ok && srcTV.Type != nil {
				if what, bad := convAllocates(tv.Type, srcTV); bad {
					add(call.Pos(), what)
				}
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				if len(call.Args) > 1 || call.Ellipsis.IsValid() {
					add(call.Pos(), "append may grow the backing array")
				}
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			}
			return
		}
	}
	// Boxing at argument positions (static and dynamic calls alike).
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, pt, arg) {
			add(arg.Pos(), "interface boxing allocates")
		}
	}
}

func scanAssign(info *types.Info, n *ast.AssignStmt, add func(token.Pos, string)) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
		add(n.Pos(), "string concatenation allocates")
	}
	for _, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isMap := info.TypeOf(idx.X).Underlying().(*types.Map); isMap {
				add(lhs.Pos(), "map assignment may allocate")
			}
		}
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			if boxes(info, info.TypeOf(lhs), n.Rhs[i]) {
				add(n.Rhs[i].Pos(), "interface boxing allocates")
			}
		}
	}
}

// convAllocates classifies allocating type conversions.
func convAllocates(dst types.Type, src types.TypeAndValue) (string, bool) {
	if src.IsNil() {
		return "", false
	}
	dstU := dst.Underlying()
	srcU := src.Type.Underlying()
	if isStringType(dstU) {
		if !isStringType(srcU) {
			return "conversion to string allocates", true
		}
		return "", false
	}
	if _, ok := dstU.(*types.Slice); ok && isStringType(srcU) {
		return "string-to-slice conversion allocates", true
	}
	if types.IsInterface(dst) && !types.IsInterface(src.Type) {
		return "interface conversion allocates (boxing)", true
	}
	return "", false
}

// boxes reports whether assigning src to a dst-typed location converts a
// concrete value to an interface (an allocation unless the escape
// analysis gets lucky — the fence does not bet on luck).
func boxes(info *types.Info, dst types.Type, src ast.Expr) bool {
	if dst == nil || src == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	if _, ok := tv.Type.(*types.TypeParam); ok {
		return false
	}
	return true
}

// capturesVariables reports whether lit references variables declared
// outside it (other than package-level ones): those force a heap closure.
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level variable, not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && isStringType(t.Underlying())
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstant(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
