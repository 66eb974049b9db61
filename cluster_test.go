package npf

import (
	"strings"
	"testing"
)

// Batch host construction and partition-pin validation.

func TestNewHostsBatch(t *testing.T) {
	cluster := NewCluster(WithSeed(5), WithEngines(4))
	hosts := cluster.NewHosts(10, WithRAM(1<<30))
	if len(hosts) != 10 {
		t.Fatalf("built %d hosts, want 10", len(hosts))
	}
	if hosts[0].Name != "host-000" || hosts[9].Name != "host-009" {
		t.Fatalf("default names: %q .. %q", hosts[0].Name, hosts[9].Name)
	}
	// Placement must match ten NewHost calls in a loop: round-robin.
	for i, h := range hosts {
		if h.Part != i%4 {
			t.Fatalf("host %d on partition %d, want %d", i, h.Part, i%4)
		}
		if h.Eng != cluster.EngineFor(h.Part) {
			t.Fatalf("host %d engine/partition mismatch", i)
		}
	}
}

func TestHostTemplateNaming(t *testing.T) {
	cluster := NewCluster(WithSeed(5))
	tmpl := HostTemplate{
		NamePattern: "srv-%02d",
		Options:     []HostOption{WithRAM(2 << 30)},
	}
	hosts, err := cluster.TryNewHosts(tmpl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hosts[2].Name != "srv-02" {
		t.Fatalf("name = %q", hosts[2].Name)
	}
	// Templates are reusable: a second batch continues independently.
	more, err := cluster.TryNewHosts(tmpl, 2)
	if err != nil || len(more) != 2 {
		t.Fatalf("second batch: %v, %d hosts", err, len(more))
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
	// Documented behaviour: a non-negative pin is ignored without a group.
	h, err := cluster.TryNewHost("h", WithPartition(3))
	if err != nil || h.Part != 0 {
		t.Fatalf("single-engine pin: %v, part %d", err, h.Part)
	}
	if _, err := cluster.TryNewHost("h", WithPartition(-2)); err == nil {
		t.Fatal("negative pin must be rejected even single-engine")
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
