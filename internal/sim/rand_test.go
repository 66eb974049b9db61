package sim

import (
	"math"
	"testing"
)

func TestZipfBounds(t *testing.T) {
	r := NewRand(11)
	for _, n := range []int{1, 2, 3, 64, 4096} {
		for i := 0; i < 5000; i++ {
			x := NewZipf(n, 1.1).Draw(r)
			if x < 0 || x >= n {
				t.Fatalf("Zipf(%d, 1.1) = %d out of [0, %d)", n, x, n)
			}
		}
	}
	if x := NewZipf(1, 1.1).Draw(r); x != 0 {
		t.Fatalf("Zipf(1, ·) = %d, want 0", x)
	}
	if x := NewZipf(0, 1.1).Draw(r); x != 0 {
		t.Fatalf("Zipf(0, ·) = %d, want 0", x)
	}
	if x := NewZipf(-3, 1.1).Draw(r); x != 0 {
		t.Fatalf("Zipf(-3, ·) = %d, want 0", x)
	}
}

// TestZipfDrawClosedForm pins Draw bit for bit to the closed form with
// both constants evaluated per draw, as every seeded run before NewZipf
// drew it.
func TestZipfDrawClosedForm(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{2, 1.1}, {512, 1.1}, {4096, 1.1}, {65536, 1.1}, {1000, 1.5}, {100, 0.5}} {
		z, a, b := NewZipf(tc.n, tc.s), NewRand(21), NewRand(21)
		s := tc.s
		if s <= 1 {
			s = 1.0001
		}
		for i := 0; i < 5000; i++ {
			u := b.Float64()
			for u == 0 {
				u = b.Float64()
			}
			want := min(max(int(math.Pow(1+u*(math.Pow(float64(tc.n), 1-s)-1), 1/(1-s)))-1, 0), tc.n-1)
			if got := z.Draw(a); got != want {
				t.Fatalf("NewZipf(%d, %g) draw %d = %d, closed form %d", tc.n, tc.s, i, got, want)
			}
		}
	}
}

func TestZipfExponentClamp(t *testing.T) {
	// s <= 1 is clamped rather than producing NaN/panic; draws must stay
	// in range and still be usable.
	r := NewRand(12)
	for _, s := range []float64{1.0, 0.5, 0, -2} {
		for i := 0; i < 2000; i++ {
			x := NewZipf(100, s).Draw(r)
			if x < 0 || x >= 100 {
				t.Fatalf("Zipf(100, %g) = %d out of range", s, x)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank 0 must dominate, and a larger exponent must concentrate more
	// mass on the low ranks.
	const n, draws = 1000, 200_000
	headMass := func(s float64) float64 {
		r := NewRand(13)
		head := 0
		for i := 0; i < draws; i++ {
			if NewZipf(n, s).Draw(r) < 10 {
				head++
			}
		}
		return float64(head) / draws
	}
	mild, steep := headMass(1.1), headMass(1.5)
	if mild < 0.3 {
		t.Fatalf("Zipf(·, 1.1) head-10 mass = %.3f, want >= 0.3", mild)
	}
	if steep <= mild {
		t.Fatalf("steeper exponent did not concentrate: s=1.5 mass %.3f <= s=1.1 mass %.3f", steep, mild)
	}

	// Frequency must be non-increasing in rank on a coarse scale.
	r := NewRand(14)
	var buckets [4]int // ranks [0,10), [10,100), [100,400), [400,1000)
	for i := 0; i < draws; i++ {
		switch x := NewZipf(n, 1.2).Draw(r); {
		case x < 10:
			buckets[0]++
		case x < 100:
			buckets[1]++
		case x < 400:
			buckets[2]++
		default:
			buckets[3]++
		}
	}
	if buckets[0] <= buckets[3] {
		t.Fatalf("head ranks drawn no more often than tail: %v", buckets)
	}
}

func TestZipfSameSeedDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 10_000; i++ {
		if x, y := NewZipf(512, 1.1).Draw(a), NewZipf(512, 1.1).Draw(b); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
	// Split streams are deterministic too, and independent of each other.
	a, b = NewRand(99).Split(), NewRand(99).Split()
	for i := 0; i < 1000; i++ {
		if x, y := NewZipf(512, 1.1).Draw(a), NewZipf(512, 1.1).Draw(b); x != y {
			t.Fatalf("split draw %d diverged: %d vs %d", i, x, y)
		}
	}
}
