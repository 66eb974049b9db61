package topo

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"npf/internal/fabric"
	"npf/internal/sim"
	"npf/internal/workload"
)

func smallConfig(tr Transport) SweepConfig {
	return SweepConfig{
		Servers:    4,
		SwarmHosts: 12,
		Transport:  tr,
		RingSize:   64,
		Tenants: []TenantSpec{
			{Workload: workload.Config{Tenant: "odp", Clients: 40, TargetOps: 400, Keys: 512, Prepopulate: true}, Reg: RegODP},
			{Workload: workload.Config{Tenant: "pindown", Clients: 40, TargetOps: 400, Keys: 512, Prepopulate: true}, Reg: RegPinDown, Servers: 2},
			{Workload: workload.Config{Tenant: "pinned", Clients: 40, TargetOps: 400, Keys: 512, Prepopulate: true}, Reg: RegPinned},
		},
		ReclaimWaves: 2,
		WaveEvery:    5 * sim.Millisecond,
	}
}

func fabricFor(tr Transport) fabric.Config {
	if tr == TransportUD {
		return fabric.DefaultInfiniBand()
	}
	return fabric.DefaultEthernet()
}

// runSweep builds and runs one sweep with the given thread budget: 0 is
// the single-engine topology (NewEngine's one-partition group), any other
// value a fixed four-partition group run on that many threads.
func runSweep(t *testing.T, tr Transport, seed int64, threads int) Result {
	t.Helper()
	var s *Sweep
	var err error
	if threads == 0 {
		eng := sim.NewEngine(seed)
		net := fabric.New(eng, fabricFor(tr))
		s, err = New(eng, net, smallConfig(tr))
	} else {
		g := sim.NewGroup(seed, 4, fabricFor(tr).Lookahead())
		g.SetThreads(threads)
		net := fabric.NewOnGroup(g, fabricFor(tr))
		s, err = New(g.Engine(0), net, smallConfig(tr))
	}
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Run()
	return s.Result()
}

func TestSweepCompletes(t *testing.T) {
	for _, tr := range []Transport{TransportEth, TransportUD} {
		r := runSweep(t, tr, 42, 0)
		if r.Hosts != 16 || r.Servers != 4 || r.SwarmHosts != 12 {
			t.Fatalf("[%v] fleet shape: %+v", tr, r)
		}
		if r.Clients != 120 {
			t.Fatalf("[%v] clients = %d, want 120", tr, r.Clients)
		}
		if r.Ops != 1200 {
			t.Fatalf("[%v] ops = %d, want 1200 (timeouts %d lost %d)", tr, r.Ops,
				r.Tenants[0].Timeouts+r.Tenants[1].Timeouts+r.Tenants[2].Timeouts,
				r.Tenants[0].Lost+r.Tenants[1].Lost+r.Tenants[2].Lost)
		}
		for _, tn := range r.Tenants {
			if tn.Ops != 400 {
				t.Fatalf("[%v] tenant %s ops = %d, want 400", tr, tn.Tenant, tn.Ops)
			}
			if tn.P99us <= 0 {
				t.Fatalf("[%v] tenant %s has no latency tail: %+v", tr, tn.Tenant, tn)
			}
		}
		if r.BytesPerHost <= 0 {
			t.Fatalf("[%v] bytes-per-host not accounted: %+v", tr, r)
		}
		// Prepopulated gets against a hot Zipf head should mostly hit.
		if r.Tenants[2].Hits == 0 {
			t.Fatalf("[%v] pinned tenant never hit: %+v", tr, r.Tenants[2])
		}
	}
}

// TestSweepPolicySpectrum checks the paper's qualitative ordering under
// reclaim pressure: the ODP tenant faults (NPFs > 0), the pin-down tenant
// exercises its cache, and the pinned tenant never sheds.
func TestSweepPolicySpectrum(t *testing.T) {
	r := runSweep(t, TransportEth, 7, 0)
	if r.NPFs == 0 {
		t.Fatalf("no NPFs despite ODP tenant under reclaim waves: %+v", r)
	}
	if r.PinHits+r.PinMisses == 0 {
		t.Fatalf("pin-down cache never exercised: %+v", r)
	}
	if r.Waves == 0 {
		t.Fatalf("reclaim waves never ran")
	}
	for _, tn := range r.Tenants {
		if tn.Reg == "pinned" && tn.Shed != 0 {
			t.Fatalf("pinned tenant shed ops: %+v", tn)
		}
	}
}

// TestSweepDeterminism: one seed must produce byte-identical results on a
// plain engine, a 4-partition group at 1 thread, and at 4 threads — the
// partition structure is fixed by topology, never by the thread budget
// (group runs only; the plain engine is a different event ordering and is
// checked for self-consistency separately).
func TestSweepDeterminism(t *testing.T) {
	for _, tr := range []Transport{TransportEth, TransportUD} {
		base := runSweep(t, tr, 42, 1)
		for _, threads := range []int{2, 4} {
			got := runSweep(t, tr, 42, threads)
			if got.Fingerprint != base.Fingerprint {
				t.Fatalf("[%v] fingerprint diverged at %d threads: %x vs %x\nbase %+v\ngot  %+v",
					tr, threads, base.Fingerprint, got.Fingerprint, base, got)
			}
		}
		again := runSweep(t, tr, 42, 1)
		if again.Fingerprint != base.Fingerprint {
			t.Fatalf("[%v] same-seed rerun diverged", tr)
		}
		other := runSweep(t, tr, 43, 1)
		if other.Fingerprint == base.Fingerprint {
			t.Fatalf("[%v] different seeds gave identical fingerprints", tr)
		}
	}
}

// TestSweepSizesFromConfig: New allocates each swarm host's client table
// at the count the deal gives it, and reserves each (host, tenant)
// latency reservoir for the host's quotas in that tenant; Start sizes each
// timer heap for the host's clients. A run grows none of them. Tenants here deal unevenly over the hosts and one spreads a
// remainder of ops.
func TestSweepSizesFromConfig(t *testing.T) {
	cfg := smallConfig(TransportEth)
	cfg.Tenants[1].Workload.Clients = 29
	cfg.Tenants[1].Workload.TargetOps = 437
	eng := sim.NewEngine(5)
	s, err := New(eng, fabric.New(eng, fabric.DefaultEthernet()), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	type reservoir struct{ quota, cap int }
	res := make([][]reservoir, len(s.swarms))
	for j, sh := range s.swarms {
		if cap(sh.clients) != len(sh.clients) {
			t.Errorf("swarm host %d: %d clients in a table of %d", j, len(sh.clients), cap(sh.clients))
		}
		res[j] = make([]reservoir, len(sh.stats))
		for _, c := range sh.clients {
			res[j][c.tenant].quota += int(c.quota)
		}
		for ti := range sh.stats {
			r := &res[j][ti]
			if r.cap = latCap(&sh.stats[ti].lat); r.cap < r.quota {
				t.Errorf("swarm host %d tenant %d: reservoir holds %d, quotas %d", j, ti, r.cap, r.quota)
			}
		}
	}
	s.Run()
	if r := s.Result(); r.Ops != 400+437+400 {
		t.Fatalf("ops = %d, want %d", r.Ops, 400+437+400)
	}
	for j, sh := range s.swarms {
		if cap(sh.timers) != len(sh.clients) {
			t.Errorf("swarm host %d: timer heap of %d for %d clients", j, cap(sh.timers), len(sh.clients))
		}
		for ti := range sh.stats {
			r, lat := res[j][ti], &sh.stats[ti].lat
			if c := latCap(lat); c != r.cap {
				t.Errorf("swarm host %d tenant %d: reservoir grew from %d to %d", j, ti, r.cap, c)
			}
			if lat.Count() > r.quota {
				t.Errorf("swarm host %d tenant %d: %d samples, reserved %d", j, ti, lat.Count(), r.quota)
			}
		}
	}
}

// latCap reports the capacity of a histogram's sample slice.
func latCap(h *sim.Histogram) int {
	return reflect.ValueOf(h).Elem().FieldByName("samples").Cap()
}

func TestSweepValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	bad := smallConfig(TransportEth)
	bad.Tenants[0].Servers = 99
	if _, err := New(eng, net, bad); err == nil {
		t.Fatal("oversubscribed tenant placement accepted")
	}
	bad = smallConfig(TransportEth)
	bad.ValueBytes = 1 << 20
	if _, err := New(eng, net, bad); err == nil {
		t.Fatal("page-overflowing ValueBytes accepted")
	}
	// A fleet client runs a closed loop only; the error names the tenant.
	bad = smallConfig(TransportEth)
	bad.Tenants[1].Workload.OpenLoop = true
	if _, err := New(eng, net, bad); err == nil || !strings.Contains(err.Error(), "pindown") {
		t.Fatalf("open-loop tenant: err = %v, want an error naming tenant pindown", err)
	}
	// eng must be partition 0 of the fabric's group.
	if _, err := New(sim.NewEngine(1), net, smallConfig(TransportEth)); err == nil {
		t.Fatal("an engine outside the fabric's group accepted")
	}
	g := sim.NewGroup(1, 2, fabric.DefaultEthernet().Lookahead())
	if _, err := New(g.Engine(1), fabric.NewOnGroup(g, fabric.DefaultEthernet()), smallConfig(TransportEth)); err == nil {
		t.Fatal("partition 1's engine accepted as partition 0")
	}
}

func TestTopologyPartition(t *testing.T) {
	tp := Topology{Hosts: 1008, HostsPerRack: 16}
	if tp.Racks() != 63 {
		t.Fatalf("racks = %d", tp.Racks())
	}
	seen := map[int]int{}
	prev := 0
	for h := 0; h < tp.Hosts; h++ {
		p := tp.Partition(h, 8)
		if p < 0 || p >= 8 {
			t.Fatalf("host %d → partition %d", h, p)
		}
		if p < prev {
			t.Fatalf("partition assignment not monotone at host %d", h)
		}
		if tp.Rack(h) == tp.Rack(h-1+1) { // same rack ⇒ same partition
			if h > 0 && tp.Rack(h) == tp.Rack(h-1) && tp.Partition(h-1, 8) != p {
				t.Fatalf("rack split across partitions at host %d", h)
			}
		}
		prev = p
		seen[p]++
	}
	if len(seen) != 8 {
		t.Fatalf("only %d partitions used", len(seen))
	}
}

// TestSwarmClientFootprint pins the per-client cost: one swarm client is a
// value struct and must stay small enough that 10^6 clients fit in tens of
// megabytes. The sizes of swarmClient and serverTenant also enter
// StateBytes, and so every fleet fingerprint: they are pinned exactly.
func TestSwarmClientFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(swarmClient{}); sz != 48 {
		t.Fatalf("swarmClient is %d bytes, want 48; 10^6 clients = %d MB", sz, sz*1_000_000/1_000_000)
	}
	if sz := unsafe.Sizeof(serverTenant{}); sz != 160 {
		t.Fatalf("serverTenant is %d bytes, want 160", sz)
	}
}

// TestSwarmClientPointerFree pins the garbage collector's side of the
// per-client cost: the fleet's clients live in one []swarmClient, and a
// slice whose element holds no pointer is never scanned. A pointer field —
// a *sim.Rand, a back-pointer, a string — puts every client back on the
// mark queue.
func TestSwarmClientPointerFree(t *testing.T) {
	for _, p := range pointerFields(reflect.TypeOf(swarmClient{}), "swarmClient") {
		t.Errorf("swarm client holds a pointer: %s", p)
	}
}

// pointerFields lists the path to every pointer-holding field inside t.
func pointerFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		if t.Len() == 0 {
			return nil
		}
		return pointerFields(t.Elem(), path+"[0]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return []string{path + " (" + t.String() + ")"}
	}
	return nil
}

// TestDefaultTenantSizing pins one default tenant's per-server memory: an
// arena of two 1 KiB slots per key on the server plus eight (4096 keys on
// one server: 2050 pages), a group limit of arena, ring and one page of
// slack (UD adds its reply buffer to the ring), and a pin-down cache half
// the arena.
func TestDefaultTenantSizing(t *testing.T) {
	const arena = 2050 * 4096
	for _, tc := range []struct {
		tr    Transport
		limit int64
	}{
		{TransportEth, arena + 128*4096 + 4096},
		{TransportUD, arena + 129*4096 + 4096},
	} {
		eng := sim.NewEngine(1)
		cfg := SweepConfig{Servers: 1, SwarmHosts: 1, Transport: tc.tr, Tenants: []TenantSpec{{Reg: RegPinDown}}}
		s, err := New(eng, fabric.New(eng, fabricFor(tc.tr)), cfg)
		if err != nil {
			t.Fatalf("[%v] New: %v", tc.tr, err)
		}
		st := s.servers[0].tenants[0]
		if got := st.slots * st.slotSize; got != arena {
			t.Errorf("[%v] arena %d B, want %d", tc.tr, got, arena)
		}
		if st.group.Limit != tc.limit {
			t.Errorf("[%v] group limit %d B, want %d", tc.tr, st.group.Limit, tc.limit)
		}
		if st.pdc.Capacity != arena/2 {
			t.Errorf("[%v] pin-down capacity %d B, want %d", tc.tr, st.pdc.Capacity, arena/2)
		}
	}
}
