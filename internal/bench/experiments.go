package bench

import (
	"npf/internal/artifact"
	"npf/internal/sim"
)

// Sizing is one of the three sizes every experiment runs at.
type Sizing int

const (
	Full  Sizing = iota // npfbench's default
	Quick               // npfbench -quick
	Test                // this package's shape tests
)

// String names the sizing as the output manifests do.
func (s Sizing) String() string { return [...]string{"full", "quick", "test"}[s] }

// pick returns the value of sizing s.
func pick[T any](s Sizing, full, quick, test T) T { return [...]T{full, quick, test}[s] }

// Result is what an experiment run returns: the text npfbench prints.
type Result interface{ Render() string }

// Recorder is a Result that also carries rows for the -json artifact.
type Recorder interface {
	Result
	Record(doc *artifact.Artifact)
}

// Experiment is one entry of Experiments.
type Experiment struct {
	Name string
	// Default marks the experiments npfbench runs when none is named.
	Default bool
	// Run runs the experiment at one sizing on scope s, which must not be
	// nil. Only loc can fail: it reads source files under s.Root.
	Run func(s *Scope, size Sizing) (Result, error)
}

// Experiments is every experiment npfbench can run, in the order its
// default list runs them. Experiments without a size parameter run the same
// way at every sizing.
var Experiments = []Experiment{
	{"fig3", true, func(s *Scope, z Sizing) (Result, error) { return RunFig3(s, pick(z, 200, 30, 40)), nil }},
	{"table4", true, func(s *Scope, z Sizing) (Result, error) { return RunTable4(s, pick(z, 5000, 500, 800)), nil }},
	{"fig4a", true, func(s *Scope, z Sizing) (Result, error) {
		return RunFig4a(s, pick(z, 80*sim.Second, 30*sim.Second, 20*sim.Second)), nil
	}},
	{"fig4b", true, func(s *Scope, z Sizing) (Result, error) {
		return RunFig4b(s, pick(z, 10000, 2000, 1000),
			pick(z, nil, []int{16, 64, 256, 1024}, []int{16, 256}),
			pick(z, 600*sim.Second, 200*sim.Second, 300*sim.Second)), nil
	}},
	{"table5", true, func(s *Scope, _ Sizing) (Result, error) { return RunTable5(s), nil }},
	{"fig7", true, func(s *Scope, _ Sizing) (Result, error) { return RunFig7(s), nil }},
	{"fig8a", true, func(s *Scope, _ Sizing) (Result, error) { return RunFig8a(s), nil }},
	{"fig8b", true, func(s *Scope, _ Sizing) (Result, error) { return RunFig8b(s), nil }},
	{"fig9", true, func(s *Scope, z Sizing) (Result, error) {
		return RunFig9(s, pick(z, 8, 4, 4), pick(z, 100, 30, 40)), nil
	}},
	{"table6", true, func(s *Scope, z Sizing) (Result, error) { return RunTable6(s, pick(z, 8, 4, 4)), nil }},
	{"fig10", true, func(s *Scope, _ Sizing) (Result, error) { return RunFig10(s), nil }},
	{"ablate", true, func(s *Scope, _ Sizing) (Result, error) { return RunAblate(s), nil }},
	{"loc", true, func(s *Scope, _ Sizing) (Result, error) {
		r, err := RunLOC(s.Root)
		if err != nil {
			return nil, err
		}
		return r, nil
	}},
	{"kv", false, func(s *Scope, z Sizing) (Result, error) { return RunKV(s, z != Full), nil }},
	{"anatomy", false, func(s *Scope, z Sizing) (Result, error) { return RunAnatomy(s, z != Full), nil }},
	{"scaleout", false, func(s *Scope, z Sizing) (Result, error) { return RunScaleout(s, z == Quick), nil }},
}

// Lookup returns the experiment named name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Record puts the kv rows into doc.
func (r *KVResult) Record(doc *artifact.Artifact) { doc.KV = r.Rows() }

// Record puts the fault_anatomy rows into doc.
func (r *AnatomyResult) Record(doc *artifact.Artifact) { doc.FaultAnatomy = r.Rows() }

// Record puts the scale_out rows into doc.
func (r *ScaleoutResult) Record(doc *artifact.Artifact) { doc.ScaleOut = r.Rows() }
