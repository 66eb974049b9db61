// Command npfperf is the simulator's performance benchmark: four workloads
// built through the public constructors of internal/bench, internal/kv and
// internal/topo, each timed phase by phase, with every metric printed as
//
//	workload/metric value unit
//
// Host-timed metrics are medians over reps, printed with their quartiles;
// simulated metrics and exact per-layer counts are deterministic and must be
// identical in every rep of a seed, which is the correctness gate together
// with each workload's own output checks. Any violation exits 1.
//
// Usage (from this directory):
//
//	go run .                           # all workloads: 1 warm-up + 7 measured rounds
//	go run . -profile                  # each rep paired with a profiled one: cpu.<layer> shares
//	go run . -calibrate 6              # the suite 6 times: spread of run medians
//	go run . -workload fleet -seconds 25 -seed 3
//
// With -workload the last line of output is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics, or per-layer
// ones with -profile / -trace 1). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// measuredRounds is the default number of measured round-robin rounds.
const measuredRounds = 7

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npfperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all, round-robin)")
	seed := fs.Int64("seed", 1, "offset added to every workload's canonical seed (1 reproduces it)")
	seconds := fs.Float64("seconds", 0, "measure for this many seconds instead of a fixed number of rounds")
	profile := fs.Bool("profile", false, "pair every measured rep with a CPU-profiled one and print per-layer shares")
	traced := fs.Int("trace", 0, "1 is the same as -profile")
	calibrate := fs.Int("calibrate", 0, "run the suite N times and print the spread of each host-timed metric")
	short := fs.Bool("short", false, "tiny workloads, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds < 0 || *calibrate < 0 {
		fmt.Fprintln(stderr, "npfperf: unexpected arguments; see -help")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "npfperf:", err)
			return 2
		}
		ws = []workload{w}
	}
	s := schedule{rounds: measuredRounds}
	if *seconds > 0 {
		s = schedule{rounds: 1, budget: time.Duration(*seconds * float64(time.Second))}
	}
	b := bencher{ws: ws, seed: *seed, short: *short, out: stdout}
	var err error
	if *calibrate > 0 {
		err = b.calibrate(*calibrate, s)
	} else {
		err = b.suite(s, *profile || *traced == 1, *name != "")
	}
	if err != nil {
		fmt.Fprintln(stderr, "npfperf:", err)
		return 1
	}
	return 0
}

// errGate reports that a correctness check failed; the details are printed.
var errGate = errors.New("correctness gate failed")

type bencher struct {
	ws    []workload
	seed  int64
	short bool
	out   io.Writer
}

// suite measures the workloads under s, with every rep paired with a
// profiled one when profile is set.
func (b *bencher) suite(s schedule, profile, jsonLine bool) error {
	fmt.Fprintf(b.out, "# npfperf seed=%d GOMAXPROCS=%d %s/%s %s\n",
		b.seed, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	for _, w := range b.ws {
		fmt.Fprintf(b.out, "# %s: %s\n", w.name, w.why)
	}
	var profs map[string]*profiler
	if profile {
		dir, err := os.MkdirTemp("", "npfperf-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		profs = map[string]*profiler{}
		for _, w := range b.ws {
			profs[w.name] = &profiler{dir: dir}
		}
	}
	start := time.Now()
	res, prof, err := measure(b.ws, b.seed, b.short, s, profs, map[string]uint64{})
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "# measured in %.1fs\n", time.Since(start).Seconds())

	ok := true
	var attempted, failed uint64
	var last []metric
	for i, r := range res {
		e2e := endToEnd(r)
		layer := perLayer(r, nil, nil)
		if profile {
			shares, err := profs[r.w.name].shares()
			if err != nil {
				return err
			}
			layer = perLayer(r, prof[i], shares)
			for _, p := range prof[i].problems {
				r.fail(p)
			}
			if msg := checkShares(shares); msg != "" {
				r.fail(msg)
			}
		}
		for _, m := range append(e2e, layer...) {
			fmt.Fprintf(b.out, "%s/%s\n", r.w.name, m)
		}
		fmt.Fprintf(b.out, "%s/fail_frac %g ratio\n", r.w.name, failFrac(r))
		for _, p := range r.problems {
			fmt.Fprintf(b.out, "%s/FAIL %s\n", r.w.name, p)
			ok = false
		}
		for _, x := range r.reps {
			attempted += x.out.attempted
			failed += x.out.failed
		}
		last = e2e
		if profile {
			last = layer
		}
	}
	if ok {
		fmt.Fprintln(b.out, "# gate: ok")
	}
	if jsonLine {
		if err := writeJSON(b.out, ok, attempted, failed, last); err != nil {
			return err
		}
	}
	if !ok {
		return errGate
	}
	return nil
}

// calibrate runs the suite n times and prints, for each host-timed metric,
// the n run medians, their max/min and their quartile spread, scaled by the
// yardstick and (for times) raw.
func (b *bencher) calibrate(n int, s schedule) error {
	ref := map[string]uint64{}
	medians := map[string][]float64{}
	var keys []string
	record := func(k string, v float64) {
		if medians[k] == nil {
			keys = append(keys, k)
		}
		medians[k] = append(medians[k], v)
	}
	for i := 0; i < n; i++ {
		res, _, err := measure(b.ws, b.seed, b.short, s, nil, ref)
		if err != nil {
			return err
		}
		for _, r := range res {
			for _, p := range r.problems {
				fmt.Fprintf(b.out, "%s/FAIL %s\n", r.w.name, p)
				return errGate
			}
			for _, m := range append(endToEnd(r), perLayer(r, nil, nil)...) {
				if m.sp == nil {
					continue // exact: the gate holds it identical in every run
				}
				record(r.w.name+"/"+m.name, m.value)
				if m.raw != 0 {
					record(r.w.name+"/"+m.name+" raw", m.raw)
				}
			}
		}
		fmt.Fprintf(b.out, "# calibration run %d of %d done\n", i+1, n)
	}
	for _, k := range keys {
		v := medians[k]
		lo, hi := v[0], v[0]
		var cols []string
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
			cols = append(cols, fmt.Sprintf("%.6g", x))
		}
		fmt.Fprintf(b.out, "%s runs [%s] max/min %.4f iqr/median %.4f\n",
			k, strings.Join(cols, " "), hi/lo, summarize(v).iqrShare())
	}
	fmt.Fprintln(b.out, "# gate: ok")
	return nil
}

// writeJSON prints the one-line JSON summary that ends a single-workload
// run.
func writeJSON(w io.Writer, correct bool, attempted, failed uint64, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range ms {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
