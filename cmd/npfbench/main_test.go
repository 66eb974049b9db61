package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npf/internal/bench"
	"npf/internal/trace"
)

// names lists the experiments' names in order.
func names(exps []bench.Experiment) string {
	var s []string
	for _, e := range exps {
		s = append(s, e.Name)
	}
	return strings.Join(s, " ")
}

func TestSelectExperiments(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "fig3 table4 fig4a fig4b table5 fig7 fig8a fig8b fig9 table6 fig10 ablate loc"},
		{[]string{"kv", "fig3"}, "kv fig3"},
		{[]string{"scaleout", "anatomy"}, "scaleout anatomy"},
	} {
		exps, err := selectExperiments(c.args)
		if err != nil {
			t.Fatal(err)
		}
		if got := names(exps); got != c.want {
			t.Errorf("%v selected %q, want %q", c.args, got, c.want)
		}
	}
}

// TestUnknownNameRunsNothing checks every name before the first run: a
// list with an unknown name prints no experiment and writes no artifact.
func TestUnknownNameRunsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-json", path, "fig3", "ablate", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran experiments before rejecting the list:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nosuch"`) {
		t.Errorf("stderr %q does not name the unknown experiment", stderr.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-json written for a rejected list (stat: %v)", err)
	}
}

// TestFailedExperimentExitsNonZero runs loc against a directory without
// the sources it counts: npfbench must fail and write no artifact.
func TestFailedExperimentExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", dir, "-json", path, "loc"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(stderr.String(), "loc: ") {
		t.Errorf("stderr %q does not name the failed experiment", stderr.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-json written after a failed experiment (stat: %v)", err)
	}
}

// TestChaosWritesSeries checks that -chaos honours -series: the scenario's
// tracer is sampled and the CSV it writes parses as a series set.
func TestChaosWritesSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.csv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chaos", "cold-ring-storm", "-series", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("-series not written: %v", err)
	}
	defer f.Close()
	set, err := trace.ReadSeriesSet(f)
	if err != nil {
		t.Fatalf("series CSV does not parse: %v", err)
	}
	if len(set) == 0 || len(set[0].Times) == 0 {
		t.Fatalf("series CSV holds no samples (%d sections)", len(set))
	}
	if !strings.Contains(stdout.String(), "series: wrote") {
		t.Errorf("stdout does not report the series file:\n%s", stdout.String())
	}
}

// TestChaosRejectsJSON checks that -chaos with -json exits 2 and names the
// flag instead of silently writing nothing.
func TestChaosRejectsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chaos", "cold-ring-storm", "-json", path}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-json") {
		t.Errorf("stderr %q does not name -json", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("ran a scenario before rejecting -json:\n%s", stdout.String())
	}
}

// TestRejectsNegativeParallel checks that a negative thread budget exits 2
// and names -parallel instead of silently meaning one per CPU.
func TestRejectsNegativeParallel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-parallel", "-3", "fig3"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-parallel") {
		t.Errorf("stderr %q does not name -parallel", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("ran an experiment before rejecting -parallel:\n%s", stdout.String())
	}
}

// TestChaosUnknownScenario checks that -chaos with an unknown name exits 2
// and names the scenario under one "chaos: " prefix.
func TestChaosUnknownScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chaos", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	msg := stderr.String()
	if !strings.HasPrefix(msg, `chaos: unknown scenario "nosuch"`) || strings.Count(msg, "chaos:") != 1 {
		t.Errorf("stderr %q, want one \"chaos: \" prefix before the unknown scenario", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran a scenario for an unknown name:\n%s", stdout.String())
	}
}
