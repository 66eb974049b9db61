package kv

import "testing"

// TestZeroConfigSizing pins what a zero Config deploys: the host and shard
// counts and each replica's arena, pin-down cache and ring sizes. The
// arena is two page-sized slots per expected key on a shard plus eight
// (2048 keys over 8 shards: 522 pages), the pin-down cache half of it.
func TestZeroConfigSizing(t *testing.T) {
	_, svc := newTestService(t, 1, Config{Reg: RegPinDown})
	servers, clients := 0, 0
	for _, h := range svc.Hosts {
		if h.Server {
			servers++
		} else {
			clients++
		}
		if n := h.ep.(*tcpEndpoint).stack.Channel().Rx.Size(); n != 256 {
			t.Errorf("%s: ring has %d entries, want 256", h.Name, n)
		}
	}
	if servers != 4 || clients != 2 {
		t.Fatalf("%d server and %d client hosts, want 4 and 2", servers, clients)
	}
	if len(svc.shards) != 8 {
		t.Fatalf("%d shards, want 8", len(svc.shards))
	}
	const arena = 522 * 4096
	for shard, reps := range svc.shards {
		if len(reps) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", shard, len(reps))
		}
		for _, r := range reps {
			if got := r.as.MappedBytes(); got != arena {
				t.Errorf("shard %d on host %d: arena maps %d B, want %d", shard, r.host.Index, got, arena)
			}
			if r.pdc == nil || r.pdc.Capacity != arena/2 {
				t.Errorf("shard %d on host %d: pin-down cache %+v, want capacity %d", shard, r.host.Index, r.pdc, arena/2)
			}
			if r.group.Limit != 0 {
				t.Errorf("shard %d on host %d: group limit %d, want unlimited", shard, r.host.Index, r.group.Limit)
			}
		}
	}
}
