package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"npf/internal/sim"
)

// Series is one sampler's materialized output: a shared time axis plus one
// equally-long column of float64 values per metric name. All exporters are
// byte-reproducible given a seed: column order is Names (sorted), floats
// are formatted with strconv's shortest round-trip form, and timestamps are
// virtual time.
type Series struct {
	Interval sim.Time
	Times    []sim.Time
	Names    []string
	Cols     map[string][]float64
}

// formatFloat renders v in the shortest form that round-trips, with NaN and
// infinities scrubbed to 0 so no exporter can emit an unparseable cell.
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV writes the series as rows of time_us plus one column per metric.
func (s *Series) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("time_us")
	for _, name := range s.Names {
		bw.WriteByte(',')
		bw.WriteString(name)
	}
	bw.WriteByte('\n')
	for i, ts := range s.Times {
		bw.WriteString(formatFloat(ts.Micros()))
		for _, name := range s.Names {
			bw.WriteByte(',')
			bw.WriteString(formatFloat(s.Cols[name][i]))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// sparkChars is the unicode eighth-block ramp sparklines draw from.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a fixed-width unicode sparkline, resampling by
// taking the maximum of each bucket (transients must stay visible). A flat
// series renders as all-low.
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if width > len(vals) {
		width = len(vals)
	}
	buckets := make([]float64, width)
	for i := range buckets {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		m := vals[lo]
		for _, v := range vals[lo+1 : hi] {
			if v > m {
				m = v
			}
		}
		buckets[i] = m
	}
	min, max := buckets[0], buckets[0]
	for _, v := range buckets {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range buckets {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(sparkChars)-1))
		}
		b.WriteRune(sparkChars[idx])
	}
	return b.String()
}

// WriteSparklines renders every column as one sparkline row with its
// min/max/last values — the quick terminal view of a run's dynamics.
func (s *Series) WriteSparklines(w io.Writer, width int) error {
	if s == nil {
		return nil
	}
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d samples, every %s of virtual time\n", len(s.Times), s.Interval)
	for _, name := range s.Names {
		col := s.Cols[name]
		min, max := col[0], col[0]
		for _, v := range col {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		fmt.Fprintf(bw, "%-32s %-*s min=%s max=%s last=%s\n",
			name, width, Sparkline(col, width),
			formatFloat(min), formatFloat(max), formatFloat(col[len(col)-1]))
	}
	return bw.Flush()
}

// Digest condenses the series — axis, names, every cell — into one FNV-1a
// hash, the compact replay-identity check for time-series output.
func (s *Series) Digest() uint64 {
	if s == nil {
		return 0
	}
	h := fnvOffset
	h = fnvInt(h, int64(s.Interval))
	for _, ts := range s.Times {
		h = fnvInt(h, int64(ts))
	}
	for _, name := range s.Names {
		h = fnvStr(h, name)
		for _, v := range s.Cols[name] {
			h = fnvInt(h, int64(math.Float64bits(v)))
		}
	}
	return h
}

// DigestSeries folds several series' digests order-invariantly (sorted
// before folding): under -parallel N the per-engine sampler set is built in
// nondeterministic registration order, and a digest of the set must not
// depend on it.
func DigestSeries(set []*Series) uint64 {
	ds := make([]uint64, 0, len(set))
	for _, s := range set {
		ds = append(ds, s.Digest())
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	h := fnvOffset
	for _, d := range ds {
		h = fnvInt(h, int64(d))
	}
	return h
}

// WriteSeriesSet writes several samplers' series as one CSV stream of
// anonymous sections, each introduced by a "# series" comment line. The
// sections are sorted by their rendered content, not by slice position:
// under -parallel N, engines (and thus samplers) register in scheduling
// order, and the artifact must be byte-identical for any worker count.
// Sections carry no engine index for the same reason.
func WriteSeriesSet(w io.Writer, set []*Series) error {
	sections := make([]string, 0, len(set))
	for _, s := range set {
		if s == nil {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# series interval_ns=%d samples=%d metrics=%d\n",
			int64(s.Interval), len(s.Times), len(s.Names))
		if err := s.WriteCSV(&b); err != nil {
			return err
		}
		sections = append(sections, b.String())
	}
	sort.Strings(sections)
	for _, sec := range sections {
		if _, err := io.WriteString(w, sec); err != nil {
			return err
		}
	}
	return nil
}

// ReadSeriesSet parses a WriteSeriesSet stream back into its sections, in
// file order. It tolerates a bare single-series CSV (no "# series" header).
func ReadSeriesSet(r io.Reader) ([]*Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var (
		set []*Series
		cur *Series
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# series") {
			cur = &Series{Cols: map[string][]float64{}}
			for _, f := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(f, "interval_ns="); ok {
					n, err := strconv.ParseInt(v, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("series line %d: bad %q", lineNo, f)
					}
					cur.Interval = sim.Time(n)
				}
			}
			set = append(set, cur)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "time_us") {
			if cur == nil { // bare CSV without a section header
				cur = &Series{Cols: map[string][]float64{}}
				set = append(set, cur)
			}
			cur.Names = strings.Split(line, ",")[1:]
			for _, name := range cur.Names {
				cur.Cols[name] = nil
			}
			continue
		}
		if cur == nil || cur.Names == nil {
			return nil, fmt.Errorf("series line %d: data before header", lineNo)
		}
		cells := strings.Split(line, ",")
		if len(cells) != len(cur.Names)+1 {
			return nil, fmt.Errorf("series line %d: %d cells, want %d", lineNo, len(cells), len(cur.Names)+1)
		}
		tv, err := strconv.ParseFloat(cells[0], 64)
		if err != nil {
			return nil, fmt.Errorf("series line %d: bad time %q", lineNo, cells[0])
		}
		cur.Times = append(cur.Times, sim.Time(tv*float64(sim.Microsecond)))
		for i, name := range cur.Names {
			v, err := strconv.ParseFloat(cells[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("series line %d: bad value %q", lineNo, cells[i+1])
			}
			cur.Cols[name] = append(cur.Cols[name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}
