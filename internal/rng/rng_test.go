package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agree on %d/100 draws", same)
	}
}

func TestStreamIndependence(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different ids agree on %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// Parent continues; child's draws should not replicate parent's.
	same := 0
	for i := 0; i < 200; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split child mirrors parent on %d/200 draws", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	c1 := New(5).Split()
	c2 := New(5).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	for n := 1; n <= 20; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) only produced %d distinct values", n, len(seen))
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(37)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCoverage(t *testing.T) {
	// Every element must be reachable by sampling.
	r := New(41)
	counts := make([]int, 10)
	for i := 0; i < 2000; i++ {
		for _, v := range r.Sample(10, 3) {
			counts[v]++
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("element %d never sampled", i)
		}
	}
}

func TestRange(t *testing.T) {
	r := New(43)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Range(-2,3) = %v out of bounds", v)
		}
	}
}

func TestFloats(t *testing.T) {
	r := New(47)
	buf := make([]float64, 100)
	r.Floats(buf, 1, 2)
	for _, v := range buf {
		if v < 1 || v >= 2 {
			t.Fatalf("Floats produced %v outside [1,2)", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(53)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) empirical probability %v", p)
	}
}

func TestUniformBits(t *testing.T) {
	// Each of the 64 bit positions should be set roughly half the time.
	r := New(59)
	const n = 20000
	var counts [64]int
	for i := 0; i < n; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		p := float64(c) / n
		if p < 0.45 || p > 0.55 {
			t.Fatalf("bit %d set with probability %v", b, p)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

func TestWattsStrogatz(t *testing.T) {
	// beta = 0 is exactly the ring lattice.
	lat := New(1).WattsStrogatz(10, 4, 0)
	if len(lat) != 10*4/2 {
		t.Fatalf("lattice has %d edges, want %d", len(lat), 20)
	}
	wantLat := map[[2]int]bool{}
	for i := 0; i < 10; i++ {
		for j := 1; j <= 2; j++ {
			a, b := i, (i+j)%10
			if a > b {
				a, b = b, a
			}
			wantLat[[2]int{a, b}] = true
		}
	}
	for _, e := range lat {
		if !wantLat[e] {
			t.Fatalf("beta=0 produced non-lattice edge %v", e)
		}
	}
	// Any beta: edge count preserved, no self-loops, no duplicates,
	// endpoints normalised, deterministic for a fixed seed.
	for _, beta := range []float64{0.1, 0.5, 1} {
		es := New(7).WattsStrogatz(30, 6, beta)
		if len(es) != 30*6/2 {
			t.Fatalf("beta=%v: %d edges, want %d", beta, len(es), 90)
		}
		seen := map[[2]int]bool{}
		for _, e := range es {
			if e[0] >= e[1] {
				t.Fatalf("beta=%v: unnormalised or self-loop edge %v", beta, e)
			}
			if e[0] < 0 || e[1] >= 30 {
				t.Fatalf("beta=%v: endpoint out of range %v", beta, e)
			}
			if seen[e] {
				t.Fatalf("beta=%v: duplicate edge %v", beta, e)
			}
			seen[e] = true
		}
		again := New(7).WattsStrogatz(30, 6, beta)
		for i := range es {
			if es[i] != again[i] {
				t.Fatalf("beta=%v: not deterministic at edge %d", beta, i)
			}
		}
	}
	// beta = 1 should actually move edges off the lattice.
	moved := 0
	for _, e := range New(3).WattsStrogatz(50, 4, 1) {
		d := e[1] - e[0]
		if d != 1 && d != 2 && d != 48 && d != 49 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("beta=1 rewired nothing")
	}
	// Malformed parameters panic.
	for _, fn := range []func(){
		func() { New(1).WattsStrogatz(2, 2, 0) },
		func() { New(1).WattsStrogatz(10, 3, 0) },
		func() { New(1).WattsStrogatz(10, 10, 0) },
		func() { New(1).WattsStrogatz(10, 4, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("malformed WattsStrogatz parameters did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestSeedMatchesNewStream pins the in-place reseed to NewStream: a
// reused value, whatever state it held (a cached Gaussian included),
// continues exactly as a fresh stream would.
func TestSeedMatchesNewStream(t *testing.T) {
	var r Rand
	r.Seed(1, 2)
	r.NormFloat64() // leave a cached Gaussian behind
	for _, c := range [][2]uint64{{0, 0}, {9, 17}, {111, 1 << 40}, {^uint64(0), 3}} {
		r.Seed(c[0], c[1])
		want := NewStream(c[0], c[1])
		for i := 0; i < 8; i++ {
			if g, w := r.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("Seed%v draw %d: %v, NewStream gives %v", c, i, g, w)
			}
		}
	}
}

// TestSampleIntoMatchesSample pins SampleInto to Sample draw for draw
// on twin streams, including k = 0 and k = n, and checks it restores
// the shared identity array after every call.
func TestSampleIntoMatchesSample(t *testing.T) {
	perm := make([]int, 40)
	for i := range perm {
		perm[i] = i
	}
	a, b := New(5), New(5)
	for _, c := range [][2]int{{1, 0}, {1, 1}, {10, 3}, {40, 40}, {40, 7}, {25, 24}, {3, 2}} {
		n, k := c[0], c[1]
		for rep := 0; rep < 20; rep++ {
			want := a.Sample(n, k)
			got := make([]int, k)
			b.SampleInto(got, n, perm)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: SampleInto %v, Sample %v", n, k, got, want)
				}
			}
			for i, v := range perm {
				if v != i {
					t.Fatalf("n=%d k=%d: perm[%d] = %d after SampleInto, want the identity", n, k, i, v)
				}
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SampleInto consumed a different number of draws than Sample")
	}
}

// TestAdvanceMatchesDraws pins the jump-ahead to the plain stream:
// after Advance(n) a stream returns exactly what a twin returns after
// n calls to Uint64, on default, custom and split streams, for counts
// around every power-of-two boundary the squaring loop crosses, and
// two jumps compose into one.
func TestAdvanceMatchesDraws(t *testing.T) {
	streams := map[string]func() *Rand{
		"default": func() *Rand { return New(5) },
		"stream":  func() *Rand { return NewStream(77, 1<<40+3) },
		"split":   func() *Rand { return New(9).Split() },
	}
	for name, mk := range streams {
		for _, n := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 255, 1000, 4097} {
			a, b := mk(), mk()
			a.Advance(n)
			for i := uint64(0); i < n; i++ {
				b.Uint64()
			}
			for i := 0; i < 4; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("%s Advance(%d): draw %d = %d, %d Uint64 calls give %d", name, n, i, x, n, y)
				}
			}
		}
		a, b := mk(), mk()
		a.Advance(300)
		a.Advance(1 << 20)
		b.Advance(300 + 1<<20)
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("%s: Advance(300) then Advance(2^20) gives %d, Advance(300+2^20) gives %d", name, x, y)
		}
	}
	// A full period is 2^128 draws, so a jump of 2^64 - 1 followed by
	// one more draw equals a jump of 2^63 twice.
	a, b := New(3), New(3)
	a.Advance(math.MaxUint64)
	a.Uint64()
	b.Advance(1 << 63)
	b.Advance(1 << 63)
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("Advance(2^64-1)+1 draw gives %d, Advance(2^63) twice gives %d", x, y)
	}
}
