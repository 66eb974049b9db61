package bench

import "testing"

// Every named scenario must pass its invariants and replay byte-identically:
// two runs with the same seed produce the same trace digest (and the same
// headline counters). Running this test under -race additionally checks the
// engine's single-threaded discipline.
func TestScenariosPassAndAreDeterministic(t *testing.T) {
	t.Parallel()
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := sc.Run(7, &Scope{})
			if !a.Pass {
				t.Fatalf("scenario failed:\n%s", a.Render())
			}
			b := sc.Run(7, &Scope{})
			if a.Digest != b.Digest {
				t.Fatalf("nondeterministic: digest %016x then %016x", a.Digest, b.Digest)
			}
			if a.Delivered != b.Delivered || a.NPFs != b.NPFs || a.InjectedDrops != b.InjectedDrops ||
				a.Retransmits != b.Retransmits || a.SimSeconds != b.SimSeconds {
				t.Fatalf("nondeterministic counters:\n%s\nvs\n%s", a.Render(), b.Render())
			}
		})
	}
}

// A different seed must not be able to break the invariants either (a small
// sweep; the scenarios' pass conditions are seed-independent).
func TestScenariosPassAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	t.Parallel()
	for _, sc := range Scenarios() {
		for seed := int64(1); seed <= 3; seed++ {
			if r := sc.Run(seed, &Scope{}); !r.Pass {
				t.Errorf("seed %d:\n%s", seed, r.Render())
			}
		}
	}
}
