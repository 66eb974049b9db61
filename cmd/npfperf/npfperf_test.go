package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestFoldTracesInnermostSimulatorFrameWins(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"rc":      1.0 / 6, // mallocgc is charged to its caller
		"sim":     2.0 / 6,
		"runtime": 1.0 / 6, // no simulator frame at all
		"bench":   1.0 / 6, // this command's frames, above the rc callback
		"topo":    1.0 / 6, // a nested package belongs to its layer
	}
	var sum float64
	for l, v := range shares {
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, v, want[l])
		}
	}
	if len(shares) != len(want) {
		t.Errorf("layers %v, want %v", shares, want)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if msg := checkShares(shares); msg != "" {
		t.Error(msg)
	}
}

func TestFoldTracesRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "-----------+---\n      10xx   main.main\n"} {
		if _, err := foldTraces(strings.NewReader(in)); err == nil {
			t.Errorf("foldTraces(%q) succeeded", in)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 0.010, "1.50s": 1.5, "250us": 250e-6, "2mins": 120, "7ns": 7e-9,
	} {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 || s.n != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	s = summarize([]float64{2, 1})
	if s.q1 != 0.75 || s.median != 1.5 || s.q3 != 2.25 {
		t.Errorf("summarize(1, 2) = %+v", s)
	}
}

// benchmarkSpec is the part of the repository's BENCHMARK.json that names
// the metrics this command must print.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricLine = regexp.MustCompile(`^([A-Za-z0-9_.-]+)/([A-Za-z0-9_.-]+) (\S+) (\S+)`)

// TestShortSmoke runs every workload at tiny size through the plain and the
// profiled run, the metrics and the gate, and checks that every metric
// BENCHMARK.json names is printed, with its unit, under a valid name.
func TestShortSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-short", "-seconds", "0.001", "-profile"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	units := map[string]string{} // "workload/metric" -> unit
	for _, line := range strings.Split(out.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %q is not workload/metric value unit", line)
			continue
		}
		units[m[1]+"/"+m[2]] = m[4]
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, npfperf %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), npfperf's is %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if u, ok := units[w.Name+"/"+m.Name]; !ok || u != m.Unit {
				t.Errorf("%s/%s printed with unit %q (present %v), want %q", w.Name, m.Name, u, ok, m.Unit)
			}
		}
	}
	if !strings.Contains(out.String(), "# gate: ok") {
		t.Error("gate did not pass")
	}
}

// TestJSONLine checks the one-line summary of a single-workload run carries
// exactly the end-to-end metrics, and the per-layer ones when traced.
func TestJSONLine(t *testing.T) {
	spec := loadSpec(t)
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"-short", "-workload", "ib-npf-storm", "-seconds", "0.001", "-trace", trace}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct           bool
			Attempted, Failed uint64
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !got.Correct || got.Attempted == 0 || got.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, got.Correct, got.Attempted, got.Failed)
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(got.Metrics), len(want))
		}
		for _, m := range want {
			if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %s", trace, m.Name, g, ok, m.Unit)
			}
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
