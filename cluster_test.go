package npf

import (
	"fmt"
	"strings"
	"testing"
)

// Host placement and partition-pin validation.

func TestNewHostsBatch(t *testing.T) {
	cluster := NewCluster(WithSeed(5), WithEngines(4))
	// Ten NewHost calls in a loop place round-robin across partitions.
	for i := 0; i < 10; i++ {
		h := cluster.NewHost(fmt.Sprintf("host-%03d", i), WithRAM(1<<30))
		if h.Part != i%4 {
			t.Fatalf("host %d on partition %d, want %d", i, h.Part, i%4)
		}
		if h.Eng != cluster.EngineFor(h.Part) {
			t.Fatalf("host %d engine/partition mismatch", i)
		}
	}
}

func TestWithPartitionValidation(t *testing.T) {
	cluster := NewCluster(WithSeed(1), WithEngines(2))
	if _, err := cluster.TryNewHost("bad", WithPartition(2)); err == nil {
		t.Fatal("WithPartition(2) on a 2-engine cluster must be rejected")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("error = %v", err)
	}
	if _, err := cluster.TryNewHost("bad", WithPartition(-1)); err == nil {
		t.Fatal("negative WithPartition must be rejected")
	}
	if h, err := cluster.TryNewHost("ok", WithPartition(1)); err != nil || h.Part != 1 {
		t.Fatalf("in-range pin: %v, part %d", err, h.Part)
	}
	// NewHost panics with the same configuration error.
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("NewHost must panic on an out-of-range partition")
		}
	}()
	cluster.NewHost("bad", WithPartition(7))
}

func TestWithPartitionSingleEngineIgnored(t *testing.T) {
	cluster := NewCluster(WithSeed(1))
	// Documented behaviour: a non-negative pin is ignored on a single engine.
	h, err := cluster.TryNewHost("h", WithPartition(3))
	if err != nil || h.Part != 0 {
		t.Fatalf("single-engine pin: %v, part %d", err, h.Part)
	}
	if _, err := cluster.TryNewHost("h", WithPartition(-2)); err == nil {
		t.Fatal("negative pin must be rejected even single-engine")
	}
}

// A single-engine cluster accepts a fabric with no propagation latency:
// its one partition has no lookahead to respect.
func TestSingleEngineZeroPropagationFabric(t *testing.T) {
	cluster := NewCluster(WithFabric(FabricConfig{RateBps: 8e9}))
	if cluster.Group.Parts() != 1 {
		t.Fatalf("%d partitions, want 1", cluster.Group.Parts())
	}
	fired := Time(-1)
	cluster.NewHost("h").Eng.After(Microsecond, func() { fired = cluster.Eng.Now() })
	if cluster.Run(); fired != Microsecond {
		t.Fatalf("event ran at %v, want %v", fired, Microsecond)
	}
}

// WithSwarm deploys a scale-out sweep through the facade and the shared
// WorkloadConfig shapes its tenants.
func TestWithSwarmFacade(t *testing.T) {
	cfg := SweepConfig{
		Servers:    2,
		SwarmHosts: 6,
		Transport:  SweepTransportEth,
		RingSize:   64,
		Tenants: []SweepTenant{
			{Workload: WorkloadConfig{Tenant: "t0", Clients: 12, TargetOps: 240, Keys: 256, Prepopulate: true}, Reg: SweepRegODP},
			{Workload: WorkloadConfig{Tenant: "t1", Clients: 12, TargetOps: 240, Keys: 256, Prepopulate: true}, Reg: SweepRegPinned},
		},
	}
	cluster := NewCluster(WithSeed(9), WithEngines(2), WithSwarm(cfg))
	if cluster.Swarm == nil {
		t.Fatal("Swarm not deployed")
	}
	cluster.Run()
	r := cluster.Swarm.Result()
	if r.Ops != 480 || r.Clients != 24 {
		t.Fatalf("ops %d clients %d, want 480/24", r.Ops, r.Clients)
	}
	if r.Hosts != 8 || r.BytesPerHost <= 0 {
		t.Fatalf("fleet shape: %+v", r)
	}
}

func TestWithSwarmInvalidPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("invalid WithSwarm config must panic at NewCluster")
		}
	}()
	NewCluster(WithSwarm(SweepConfig{Servers: 1, SwarmHosts: 1, ValueBytes: 1 << 20}))
}
