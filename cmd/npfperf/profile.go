package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileHz is the traced run's CPU sampling rate, 2.5 times the runtime's
// default. It is the highest a kernel with a 250 Hz tick delivers: asked
// for 1000 Hz, such a kernel still fires 250 times a second, and each
// sample is then weighted as a quarter of the time it stands for.
const profileHz = 250

// layers are the cpu.<layer> metrics: the simulator's packages, bench for
// the harnesses (internal/bench and this command), and runtime for samples
// with no simulator frame at all.
var layers = []string{
	"sim", "fabric", "nic", "rc", "tcp", "iommu", "core", "mem",
	"kv", "topo", "workload", "trace", "apps", "bench", "runtime",
}

// profiler records CPU profiles of one workload's reps, one file per timed
// span. A nil profiler records nothing.
type profiler struct {
	dir   string
	files []string
	f     *os.File
}

func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	f, err := os.CreateTemp(p.dir, "cpu-*.pprof")
	if err != nil {
		return err
	}
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a warning that it cannot set its own default rate.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start CPU profile: %w", err)
	}
	p.f = f
	p.files = append(p.files, f.Name())
	return nil
}

func (p *profiler) stop() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return p.f.Close()
}

// shares merges the recorded profiles with `go tool pprof -traces` and
// folds the samples into per-layer CPU shares.
func (p *profiler) shares() (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces"}, p.files...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(bytes.NewReader(out))
}

// layerOf maps a frame to its layer, or "" for a frame outside the
// simulator and its harnesses (the runtime and the standard library).
func layerOf(frame string) string {
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(frame, "npf/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// foldTraces reads `go tool pprof -traces` output and returns each layer's
// share of the sampled CPU time. A sample goes to its innermost simulator
// frame, so time in the allocator or a map lands on the layer that called
// it; a sample with no such frame goes to runtime.
//
// The format is a header, then per sample a separator line, optional label
// lines ("key:  value"), and the stack innermost first, the first frame
// prefixed by the sample's value ("10ms   fn"), the rest indented.
func foldTraces(r io.Reader) (map[string]float64, error) {
	total := map[string]float64{}
	var sum float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inSamples := false
	var layer string // layer of the sample being read; "" until a frame claims it
	var value float64
	flush := func() {
		if layer == "" {
			layer = "runtime"
		}
		total[layer] += value
		sum += value
		layer, value = "", 0
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		trimmed := strings.TrimLeft(line, " ")
		frame := trimmed
		if len(line)-len(trimmed) < 10 { // a value or label column is present
			tok, rest, _ := strings.Cut(trimmed, " ")
			if strings.HasSuffix(tok, ":") {
				continue // a label line
			}
			v, err := parseDuration(tok)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			value = v
			frame = strings.TrimSpace(rest)
		}
		if layer == "" {
			layer = layerOf(strings.TrimSuffix(frame, " (inline)"))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sum == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for l := range total {
		total[l] /= sum
	}
	return total, nil
}

// parseDuration reads a pprof sample value such as "10ms", "1.50s" or "2mins".
func parseDuration(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("no number in %q", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, err
	}
	scale := map[string]float64{
		"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1,
		"min": 60, "mins": 60, "hr": 3600, "hrs": 3600,
	}[s[i:]]
	if scale == 0 {
		return 0, fmt.Errorf("unknown unit in %q", s)
	}
	return v * scale, nil
}
