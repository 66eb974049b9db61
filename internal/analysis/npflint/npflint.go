// Package npflint assembles the repo's determinism-contract analyzers
// into one suite — the machine-checked form of the invariants every
// figure reproduction, chaos invariant, and byte-identical parallel sweep
// depends on. cmd/npflint runs it; scripts/ci.sh gates on it.
package npflint

import (
	"golang.org/x/tools/go/analysis"

	"npf/internal/analysis/detflow"
	"npf/internal/analysis/maporder"
	"npf/internal/analysis/noalloc"
	"npf/internal/analysis/probepure"
	"npf/internal/analysis/simtime"
	"npf/internal/analysis/xengine"
)

// Analyzers returns the npflint suite in stable order. detflow, noalloc,
// and probepure are the interprocedural, facts-based analyzers; the rest
// are per-package syntactic checks.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detflow.Analyzer,
		maporder.Analyzer,
		noalloc.Analyzer,
		probepure.Analyzer,
		simtime.Analyzer,
		xengine.Analyzer,
	}
}
