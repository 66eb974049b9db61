package detflow_test

import (
	"path/filepath"
	"testing"

	"npf/internal/analysis/analysistest"
	"npf/internal/analysis/detflow"
)

// TestDetflow exercises the cross-package reach analysis: facts flow from
// the hostutil and cmd/tool fixture packages into package a, where every
// unannotated cross-package call to a carrier is flagged with its chain.
// Requesting hostutil asserts the no-intra-package-reports policy: only
// its direct clock reads are flagged, not its local callers.
func TestDetflow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detflow.Analyzer, "a", "hostutil")
}

// TestDetflowDirect exercises the direct-use check: wall-clock, global
// rand, and environment reads written in a guarded package are flagged,
// while _test.go files, //npf:wallclock sites, and cmd/ binaries are not.
func TestDetflowDirect(t *testing.T) {
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "direct"), detflow.Analyzer, "a", "cmd/tool")
}
