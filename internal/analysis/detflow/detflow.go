// Package detflow defines the analyzer that keeps nondeterminism sources
// out of the simulation layers.
//
// Every result the simulator produces must be a pure function of (scenario,
// seed): virtual time comes from sim.Engine, randomness from the engine's
// seeded RNG splits. A single time.Now() or global math/rand draw silently
// breaks byte-identical replay, so reaching for the host's clock, the global
// rand source, or the process environment is banned in the root package and
// internal/... — only cmd/ binaries (which report real elapsed time to
// humans) and _test.go files are allowed, plus sites annotated
// //npf:wallclock.
//
// detflow enforces that at two distances. Direct uses of a banned source
// identifier in a guarded package are flagged where they are written. And,
// bottom-up over the package graph, it computes which functions *reach* a
// nondeterminism source (wall clock, global rand, environment, goroutine
// introspection) through any chain of calls, and flags cross-package calls
// to such carriers from sim-layer code — including helpers that live in
// cmd/, where direct uses are never reported. Facts are pure reachability —
// an //npf:wallclock annotation suppresses the diagnostic at the annotated
// site but never launders the fact, so every new caller of a
// clock-reaching helper makes its own reviewed decision.
//
// Intra-package chains are deliberately not re-reported: the direct use is
// already flagged, and doubling it up at every local caller would say
// nothing new. The cross-package edge is where the information is lost,
// and that is where the chain is reported.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"npf/internal/analysis/directive"
	"npf/internal/analysis/summary"
)

const Doc = `forbid nondeterminism in sim layers, directly or through any call chain

Simulation code must be deterministic given (scenario, seed): virtual time
comes from sim.Engine and randomness from engine-owned seeded RNGs. Uses of
time.Now/Since/Sleep/..., the global math/rand source, and os.Getenv
outside cmd/ and _test.go are flagged where they are written. A function
that calls such a source, or goroutine introspection, through ANY chain of
helpers — across packages, including cmd/ — carries that reach as a fact;
calling such a carrier from a guarded package is flagged with the full
chain. Annotate reviewed sites with //npf:wallclock; the fact survives the
annotation, so each new caller is reviewed on its own.`

var Analyzer = &analysis.Analyzer{
	Name:      "detflow",
	Doc:       Doc,
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*Reaches)(nil)},
	Run:       run,
}

// Reaches marks a function that transitively reaches a nondeterminism
// source; Chain is the human-readable call path ("helper → time.Now").
type Reaches struct {
	Chain string
}

// AFact marks Reaches as a serializable analysis fact.
func (*Reaches) AFact() {}

// banned maps package path → banned function names. An empty set bans
// every package-level function except those in allowedInPkg.
var banned = map[string]map[string]bool{
	"time": {
		"Now": true, "Since": true, "Until": true, "Sleep": true,
		"After": true, "AfterFunc": true, "Tick": true,
		"NewTimer": true, "NewTicker": true,
	},
	"os": {
		"Getenv": true, "LookupEnv": true, "Environ": true,
	},
	// The global source draws are banned; explicit constructors
	// (rand.New, rand.NewSource, ...) remain available for seeded use.
	"math/rand":    nil,
	"math/rand/v2": nil,
}

// allowedInPkg lists the explicitly-seeded constructors that stay legal in
// the rand packages.
var allowedInPkg = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// extraSources extends the banned table with goroutine/process
// introspection that is legal to use directly (it is harmless in logging)
// but that must not flow into sim state through a carrier.
var extraSources = map[string]map[string]bool{
	"runtime": {
		"NumGoroutine": true, "Stack": true, "Caller": true,
		"Callers": true, "ReadMemStats": true,
	},
	"os": {
		"Getpid": true, "Hostname": true,
	},
}

// packageFunc reports whether fn is a package-level function (methods are
// never sources).
func packageFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isBanned reports whether fn is one of the banned nondeterminism entry
// points: a package-level wall-clock read, global-rand draw, or
// environment access — the sources whose direct use is flagged.
func isBanned(fn *types.Func) bool {
	if !packageFunc(fn) {
		return false
	}
	names, ok := banned[fn.Pkg().Path()]
	if !ok {
		return false
	}
	if names == nil {
		return !allowedInPkg[fn.Name()]
	}
	return names[fn.Name()]
}

// isSource is the transitive-taint seed: the banned sources plus
// extraSources.
func isSource(fn *types.Func) bool {
	if isBanned(fn) {
		return true
	}
	if !packageFunc(fn) {
		return false
	}
	names, ok := extraSources[fn.Pkg().Path()]
	return ok && names[fn.Name()]
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := summary.Build(pass.TypesInfo, pass.Files, true)

	external := func(e summary.Edge) string {
		if e.Fn == nil {
			return "" // dynamic calls are out of scope (documented gap)
		}
		if isSource(e.Fn) {
			return e.Fn.Pkg().Path() + "." + e.Fn.Name()
		}
		var r Reaches
		if pass.ImportObjectFact(e.Fn, &r) {
			return summary.Chain(crossLabel(e.Fn), r.Chain)
		}
		return ""
	}
	reasons := g.Fixpoint(func(int) string { return "" }, external, nil)

	// Facts are exported for every package — including cmd/, which is
	// exactly where clock-wrapping helpers live — so carriers are visible
	// wherever they end up being called from.
	for i, d := range g.Decls {
		if reasons[i] != "" {
			pass.ExportObjectFact(d.Fn, &Reaches{Chain: reasons[i]})
		}
	}

	if allowlisted(pass.Pkg.Path()) {
		return nil, nil // cmd/ binaries may report wall time to humans
	}
	dirs := directive.ForFiles(pass.Fset, pass.Files)
	exempt := func(pos token.Pos) bool {
		return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go") ||
			dirs.Allows(pass.Fset, "wallclock", pos)
	}

	// Direct uses: every reference to a banned source, called or not.
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node) {
		id := n.(*ast.Ident)
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || !isBanned(fn) || exempt(id.Pos()) {
			return
		}
		pass.Reportf(id.Pos(), "%s.%s is nondeterministic: sim layers must use virtual time / engine-owned RNG (annotate //npf:wallclock if intentional)",
			fn.Pkg().Path(), fn.Name())
	})

	// Cross-package calls to carriers.
	for i := range g.Decls {
		for _, e := range g.Edges[i] {
			if e.Fn == nil || e.Fn.Pkg() == nil || e.Fn.Pkg() == pass.Pkg {
				continue // intra-package chains bottom out at the direct use
			}
			if isSource(e.Fn) {
				continue // a direct use, flagged above (or legal by choice)
			}
			var r Reaches
			if !pass.ImportObjectFact(e.Fn, &r) || exempt(e.Pos) {
				continue
			}
			pass.Reportf(e.Pos, "call to %s reaches nondeterminism (%s): sim layers must use virtual time / engine-owned RNG (annotate //npf:wallclock if intentional)",
				crossLabel(e.Fn), r.Chain)
		}
	}
	return nil, nil
}

// allowlisted reports whether the package is a cmd/ binary, where
// wall-clock reporting to humans is expected and nothing is reported.
func allowlisted(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" {
			return true
		}
	}
	return false
}

// crossLabel names an out-of-package function for diagnostics:
// "pkg.F" or "pkg.T.M" with the short package name.
func crossLabel(fn *types.Func) string {
	label := summary.FuncLabel(fn)
	if fn.Pkg() != nil {
		label = fn.Pkg().Name() + "." + label
	}
	return label
}
