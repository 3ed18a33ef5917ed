// Package rng provides a deterministic, splittable pseudo-random number
// generator for reproducible parallel experiments.
//
// The generator is PCG-XSL-RR 128/64 (O'Neill, 2014) implemented with
// 64-bit limbs from math/bits. Unlike math/rand's global source, every
// stream is an explicit value, two streams with different increments are
// statistically independent, and Split derives child streams whose
// sequences do not overlap with the parent. All experiment and test code
// in this repository draws randomness exclusively through this package so
// that any run is reproducible from a single root seed.
package rng

import (
	"math"
	"math/bits"
)

// mulHi128 multiplier for the PCG 128-bit LCG step
// (0x2360ed051fc65da44385df649fccf645).
const (
	mulHi = 0x2360ed051fc65da4
	mulLo = 0x4385df649fccf645
)

// Rand is a deterministic PCG-XSL-RR 128/64 stream. The zero value is not
// valid; construct streams with New or Split.
type Rand struct {
	stateHi, stateLo uint64
	incHi, incLo     uint64 // odd; selects the stream
	haveGauss        bool
	gauss            float64
}

// New returns a stream seeded from seed on the default stream sequence.
func New(seed uint64) *Rand {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a stream seeded from seed on the sequence selected by
// stream. Different stream values yield independent sequences.
func NewStream(seed, stream uint64) *Rand {
	r := &Rand{}
	r.Seed(seed, stream)
	return r
}

// Seed resets r in place to the stream NewStream(seed, stream) returns:
// the allocation-free way to start a fresh stream in a reused value.
func (r *Rand) Seed(seed, stream uint64) {
	*r = Rand{}
	// The increment must be odd. Spread the stream id over both limbs.
	r.incHi = stream
	r.incLo = stream<<1 | 1
	// Standard PCG seeding: advance once, add seed, advance again.
	r.step()
	r.stateLo, r.stateHi = add128(r.stateHi, r.stateLo, 0, seed)
	r.step()
}

// add128 returns (hi,lo) + (bhi,blo) as lo, hi (note the return order is
// lo, hi to keep carry handling local).
func add128(hi, lo, bhi, blo uint64) (uint64, uint64) {
	sumLo, carry := bits.Add64(lo, blo, 0)
	sumHi, _ := bits.Add64(hi, bhi, carry)
	return sumLo, sumHi
}

// step advances the 128-bit LCG state.
func (r *Rand) step() {
	// state = state*mul + inc (128-bit).
	hi, lo := bits.Mul64(r.stateLo, mulLo)
	hi += r.stateHi*mulLo + r.stateLo*mulHi
	lo, carry := bits.Add64(lo, r.incLo, 0)
	hi, _ = bits.Add64(hi, r.incHi, carry)
	r.stateHi, r.stateLo = hi, lo
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.step()
	// XSL-RR output: xor-shift-low then random rotate.
	x := r.stateHi ^ r.stateLo
	rot := uint(r.stateHi >> 58)
	return bits.RotateLeft64(x, -int(rot))
}

// Split derives a child stream whose sequence is independent from the
// remainder of the parent's. The parent remains usable.
func (r *Rand) Split() *Rand {
	c := &Rand{}
	r.SplitInto(c)
	return c
}

// SplitInto is Split without allocating: it resets c to the child
// stream Split would return.
func (r *Rand) SplitInto(c *Rand) {
	seed := r.Uint64()
	c.Seed(seed, r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		threshold := -uint64(n) % uint64(n)
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box-Muller with caching).
func (r *Rand) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using swap (Fisher-Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	r.SampleInto(out, n, idx)
	return out
}

// SampleInto is Sample(n, len(dst)) without allocating: it draws the
// same indices, in the same order, from the same stream state into dst.
// perm is the index array of the partial Fisher–Yates shuffle: it must
// hold the identity permutation on at least its first n entries, and it
// holds it again on return, so a caller keeps one perm and reuses it.
func (r *Rand) SampleInto(dst []int, n int, perm []int) {
	k := len(dst)
	if k > n {
		panic("rng: SampleInto with k out of range")
	}
	// Partial Fisher-Yates over the index array.
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		dst[i] = perm[i]
	}
	// Only the first k slots and slots whose value was drawn moved: a
	// slot j >= k first gives up its own value j to dst.
	for _, v := range dst {
		perm[v] = v
	}
	for i := 0; i < k; i++ {
		perm[i] = i
	}
}

// Floats fills dst with uniform values in [lo, hi).
func (r *Rand) Floats(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = r.Range(lo, hi)
	}
}

// WattsStrogatz generates the classic small-world graph on n ring
// nodes (Watts & Strogatz 1998): start from a ring lattice where every
// node connects to its k nearest neighbours (k even, k/2 per side),
// then rewire each lattice edge (i, i+j mod n) with probability beta —
// keeping endpoint i, redrawing the other endpoint uniformly while
// rejecting self-loops and duplicate edges. Edges are undirected and
// returned once each as [2]int{lo, hi}; the edge count n·k/2 is
// preserved exactly. beta = 0 returns the pure lattice, beta = 1 an
// Erdős–Rényi-like random graph with the lattice's edge budget.
//
// This is the reference topology generator the paper-style robustness
// sweeps contrast with layered stacks; graph.NewSmallWorld applies the
// same rewiring idea to DAG levels, where edges must stay acyclic.
func (r *Rand) WattsStrogatz(n, k int, beta float64) [][2]int {
	if n < 3 {
		panic("rng: WattsStrogatz needs n >= 3")
	}
	if k < 2 || k%2 != 0 || k >= n {
		panic("rng: WattsStrogatz needs even k with 2 <= k < n")
	}
	if beta < 0 || beta > 1 || beta != beta {
		panic("rng: WattsStrogatz beta outside [0, 1]")
	}
	norm := func(a, b int) [2]int {
		if a < b {
			return [2]int{a, b}
		}
		return [2]int{b, a}
	}
	have := make(map[[2]int]bool, n*k/2)
	edges := make([][2]int, 0, n*k/2)
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			have[norm(i, (i+j)%n)] = true
		}
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			e := norm(i, (i+j)%n)
			if beta > 0 && r.Float64() < beta {
				// Redraw the far endpoint; keep the lattice edge if no
				// legal target exists after a bounded number of tries
				// (possible only in near-complete graphs).
				for try := 0; try < 2*n; try++ {
					m := r.Intn(n)
					cand := norm(i, m)
					if m == i || have[cand] {
						continue
					}
					delete(have, e)
					have[cand] = true
					e = cand
					break
				}
			}
			edges = append(edges, e)
		}
	}
	return edges
}
