package perlin

import (
	"math"
	"testing"
	"testing/quick"

	"appfit/internal/bench/workload"
)

func TestNoiseRange(t *testing.T) {
	f := func(xi, yi uint16) bool {
		x := float64(xi) / 97.0
		y := float64(yi) / 89.0
		n := noise2(x, y)
		return n >= -1.0001 && n <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseDeterministic(t *testing.T) {
	if noise2(3.7, 1.2) != noise2(3.7, 1.2) {
		t.Fatal("noise must be a pure function")
	}
}

func TestNoiseZeroAtLatticePoints(t *testing.T) {
	// Classic Perlin noise vanishes at integer lattice points.
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			if v := noise2(float64(x), float64(y)); v != 0 {
				t.Fatalf("noise(%d,%d) = %g, want 0", x, y, v)
			}
		}
	}
}

func TestNoiseContinuity(t *testing.T) {
	// Neighbouring samples must be close (smoothness of fade/lerp).
	const h = 1e-4
	for i := 0; i < 100; i++ {
		x := 0.13*float64(i) + 0.5
		d := math.Abs(noise2(x+h, 2.5) - noise2(x, 2.5))
		if d > 0.01 {
			t.Fatalf("noise jump %g at x=%g", d, x)
		}
	}
}

func TestOctavesNormalized(t *testing.T) {
	for i := 0; i < 500; i++ {
		v := octaveNoise(float64(i)*0.113, 7.7, 4)
		if v < -1.0001 || v > 1.0001 {
			t.Fatalf("octave noise out of range: %g", v)
		}
	}
}

func TestRenderBlockDeterministic(t *testing.T) {
	a := make([]uint8, 256)
	b := make([]uint8, 256)
	renderBlock(a, 512, 3, 4)
	renderBlock(b, 512, 3, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("render must be deterministic")
		}
	}
	renderBlock(b, 512, 4, 4)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different frames must differ")
	}
}

func TestParamsAndTasks(t *testing.T) {
	for _, s := range []workload.Scale{workload.Tiny, workload.Small, workload.Medium} {
		p := sizes[s]
		if p.Pixels%p.B != 0 {
			t.Fatalf("%v: pixels %% block != 0", s)
		}
	}
	if n := sizes[workload.Medium].tasks(); n < 25000 || n > 48000 {
		t.Fatalf("medium task count %d outside 25K-48K", n)
	}
}
