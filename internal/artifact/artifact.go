// Package artifact declares the `npfbench -json` document: every section
// and row type, once, with the regression gate `npfstat` applies to each
// field carried as a struct tag. npfbench fills these types; npfstat
// decodes them strictly (an unknown field is a usage error) and walks the
// tags, so a new section costs one struct here and no code in either tool.
//
// Every field is a function of the code, the experiment list, -quick and
// -engines: the document is byte-identical for every -parallel value and
// on every host. Host time is measured only by cmd/npfperf.
//
// The gate vocabulary (`gate:"…"`):
//
//	tag      on                 meaning
//	key      row field          identifies the row; rows match by key
//	exact    field              any change fails
//	tol      numeric field      fails when |Δ/baseline| > -count-tol
//	warn     field              warns when the value differs from the baseline
//	subset   row slice          the current rows may omit baseline rows
//	(none)   field              not gated
//
// Rows are matched per section (a slice of structs) by their key field.
// A current row the baseline lacks fails; so does a baseline row the
// current run lacks, unless the section is tagged subset. A section absent
// from the current run is not gated; a section present only in the current
// run gates against an empty baseline, so every keyed row in it fails and
// every other field compares against its zero value. Nested row slices (a
// scale-out fleet's tenants) follow the same rules inside their parent row.
package artifact

// Artifact is the top-level -json document.
type Artifact struct {
	Engines      int           `json:"engines"`
	Quick        bool          `json:"quick"`
	EngineBench  EngineBench   `json:"engine_bench"`
	Series       *Series       `json:"series,omitempty"`
	KV           []KVRow       `json:"kv,omitempty"`
	FaultAnatomy []AnatomyRow  `json:"fault_anatomy,omitempty"`
	ScaleOut     []ScaleOutRow `json:"scale_out,omitempty"`
	Scaling      []ScalingRow  `json:"scaling,omitempty"`
	TraceDrops   *TraceDrops   `json:"trace_drops,omitempty"`
	// Experiments is a selection: CI's quick run gates a subset of the
	// baseline's experiments.
	Experiments []Experiment `json:"experiments" gate:"subset"`
}

// Experiment is one experiment's row. Engines and events are a pure
// function of the seed for any -parallel or -engines value, so even a
// one-event delta is a behavioural change.
type Experiment struct {
	Name    string `json:"name" gate:"key"`
	Engines int    `json:"engines" gate:"exact"`
	Events  uint64 `json:"events" gate:"exact"`
}

// EngineBench is the sim-engine hot-path allocation check. Steady state is
// allocation-free, so allocs/op is exact.
type EngineBench struct {
	AllocsPerOp int64 `json:"allocs_per_op" gate:"exact"`
}

// Series condenses the -series capture: the digest is the order-invariant
// fold of every engine's series digest, so two runs of the same seed agree
// on it for any -parallel N. It changes whenever any instrumented subsystem
// changes behaviour, so it only warns.
type Series struct {
	Engines    int    `json:"engines"`
	Samples    int    `json:"samples"`
	Metrics    int    `json:"metrics"`
	IntervalNs int64  `json:"interval_ns"`
	Digest     string `json:"digest" gate:"warn"`
}

// KVRow is one registration policy's row of the KV ablation. Completed ops
// are a correctness invariant; the rest is virtual-time deterministic and
// holds within -count-tol.
type KVRow struct {
	Policy    string  `json:"policy" gate:"key"`
	Ops       int     `json:"ops" gate:"exact"`
	P99Us     float64 `json:"p99_us" gate:"tol"`
	NPFs      uint64  `json:"npfs" gate:"tol"`
	Evictions uint64  `json:"evictions" gate:"tol"`
	Shed      uint64  `json:"shed" gate:"tol"`
	Failovers uint64  `json:"failovers" gate:"tol"`
}

// AnatomyRow is one policy's fault-anatomy row. Fault and pending counts
// are lifecycle-accounting invariants and the critical-path attribution is
// the experiment's headline claim, so both are exact; the dropped_* fields
// report telemetry loss, not a behaviour change, so they only warn.
type AnatomyRow struct {
	Policy         string  `json:"policy" gate:"key"`
	Faults         int     `json:"faults" gate:"exact"`
	Pending        int     `json:"pending" gate:"exact"`
	NPFs           uint64  `json:"npfs" gate:"tol"`
	TotalP50Us     float64 `json:"total_p50_us" gate:"tol"`
	TotalP99Us     float64 `json:"total_p99_us" gate:"tol"`
	CritStage      string  `json:"crit_stage" gate:"exact"` // dominant stage of the p99 tail
	CritLayer      string  `json:"crit_layer" gate:"exact"`
	CritHost       int64   `json:"crit_host" gate:"exact"`
	CritShare      float64 `json:"crit_share"` // mean share of tail-fault totals
	DroppedEvents  uint64  `json:"dropped_fault_events" gate:"warn"`
	DroppedRecords uint64  `json:"dropped_fault_records" gate:"warn"`
	DroppedSpans   uint64  `json:"dropped_spans" gate:"warn"`
}

// ScaleOutRow is one transport's cluster-sweep fleet. The fleet shape,
// completed ops and the run fingerprint are exact: the fingerprint folds
// every per-tenant tail percentile, so it is the byte-identity check across
// engine budgets. Bytes-per-host (the cheap-per-host-state budget) and the
// NPF-machinery counters hold within -count-tol.
type ScaleOutRow struct {
	Transport    string      `json:"transport" gate:"key"`
	Hosts        int         `json:"hosts" gate:"exact"`
	Clients      int         `json:"clients" gate:"exact"`
	Ops          uint64      `json:"ops" gate:"exact"`
	NPFs         uint64      `json:"npfs" gate:"tol"`
	Evictions    uint64      `json:"evictions" gate:"tol"`
	DropsFault   uint64      `json:"drops_fault"`
	BytesPerHost int64       `json:"bytes_per_host" gate:"tol"`
	Fingerprint  string      `json:"fingerprint" gate:"exact"`
	Tenants      []TenantRow `json:"tenants"`
}

// TenantRow is one tenant of a scale-out fleet: the registration-policy
// spectrum as fleet-wide tail latency.
type TenantRow struct {
	Tenant   string  `json:"tenant" gate:"key"`
	Reg      string  `json:"reg"`
	Clients  int     `json:"clients"`
	Ops      uint64  `json:"ops" gate:"exact"`
	Timeouts uint64  `json:"timeouts"`
	Lost     uint64  `json:"lost" gate:"exact"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us" gate:"tol"`
}

// ScalingRow is one experiment's PDES identity record: the same partitioned
// run under a 1-thread and an 8-thread engine budget. The partition
// structure is fixed by the env shape, so both budgets execute the same
// events and the count is exact.
type ScalingRow struct {
	Name   string `json:"name" gate:"key"`
	Events uint64 `json:"events" gate:"exact"`
}

// TraceDrops sums telemetry loss across every tracer the run built: spans
// dropped at MaxSpans plus fault lifecycle events/records dropped at the
// flight-recorder bounds. Loss means the capture was partial, never that
// the simulation changed, so it only warns.
type TraceDrops struct {
	Tracers        int    `json:"tracers"`
	Spans          uint64 `json:"dropped_spans" gate:"warn"`
	FaultEvents    uint64 `json:"dropped_fault_events" gate:"warn"`
	FaultRecords   uint64 `json:"dropped_fault_records" gate:"warn"`
	PendingFaults  int    `json:"pending_faults"`
	CompletedFault int    `json:"completed_faults"`
}
