package core

import (
	"fmt"
	"math"
)

// Certifier amortises repeated certificate queries against one shape:
// the intermediate buffers of every bound formula are preallocated, so
// steady-state queries allocate nothing. It exists for long-running
// query services that answer many bounds requests per network — the
// free functions (Fep, SynapseFep, ...) stay the convenient one-shot
// API and the Certifier computes bit-identical values.
//
// A Certifier is NOT safe for concurrent use: give each goroutine its
// own (they are cheap — two small slices).
type Certifier struct {
	s Shape
	// suffix receives the propagation products of Theorem 2 (length
	// L+2) and, for SynapseFep, the full-width products (length L+3).
	suffix []float64
	// signals backs RequiredSignals.
	signals []int
}

// NewCertifier validates the shape and returns a Certifier for it.
func NewCertifier(s Shape) (*Certifier, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return newCertifier(s), nil
}

// newCertifier builds a Certifier for a shape already validated.
func newCertifier(s Shape) *Certifier {
	L := s.Layers()
	return &Certifier{
		s:       s,
		suffix:  make([]float64, L+3),
		signals: make([]int, L),
	}
}

// Shape returns the shape the certifier was built for.
func (c *Certifier) Shape() Shape { return c.s }

// suffixProductsInto fills c.suffix[0..L+1] like Shape.suffixProducts,
// without allocating.
func (c *Certifier) suffixProductsInto(faults []int) []float64 {
	s, L := c.s, c.s.Layers()
	suffix := c.suffix[:L+2]
	suffix[L+1] = 1
	suffix[L] = s.MaxW[L]
	for l := L - 1; l >= 0; l-- {
		suffix[l] = float64(s.Widths[l]-faults[l]) * s.MaxW[l] * suffix[l+1]
	}
	return suffix
}

// Fep is Theorem 2 (identical to the package-level Fep) without
// allocations.
func (c *Certifier) Fep(faults []int, cap float64) float64 {
	if cap < 0 {
		panic("core: negative capacity")
	}
	s := c.s
	s.checkFaults(faults)
	L := s.Layers()
	suffix := c.suffixProductsInto(faults)
	total := 0.0
	for l := 1; l <= L; l++ {
		if faults[l-1] == 0 {
			continue
		}
		total += float64(faults[l-1]) * cap * math.Pow(s.K, float64(L-l)) * suffix[l]
	}
	return total
}

// CrashFep is the crash case (cap replaced by the activation maximum).
func (c *Certifier) CrashFep(faults []int) float64 {
	return c.Fep(faults, c.s.ActCap)
}

// SynapseFep is the Lemma 2 synapse bound (identical to the
// package-level SynapseFep) without allocations. faults has length L+1,
// the last entry counting faults on the output synapses.
func (c *Certifier) SynapseFep(faults []int, cap float64) float64 {
	s, L := c.s, c.s.Layers()
	if len(faults) != L+1 {
		panic(fmt.Sprintf("core: synapse distribution has %d entries, want L+1 = %d", len(faults), L+1))
	}
	if cap < 0 {
		panic("core: negative capacity")
	}
	for _, f := range faults {
		if f < 0 {
			panic("core: negative synapse fault count")
		}
	}
	suffix := c.suffix[:L+3]
	suffix[L+2] = 1
	suffix[L+1] = s.MaxW[L]
	for l := L; l >= 1; l-- {
		suffix[l] = float64(s.Widths[l-1]) * s.MaxW[l-1] * suffix[l+1]
	}
	total := 0.0
	for l := 1; l <= L; l++ {
		if faults[l-1] == 0 {
			continue
		}
		total += float64(faults[l-1]) * math.Pow(s.K, float64(L+1-l)) * suffix[l+1]
	}
	total += float64(faults[L])
	return cap * total
}

// Tolerates is Theorem 3's condition on the certifier's shape.
func (c *Certifier) Tolerates(faults []int, cap, eps, epsPrime float64) bool {
	if eps < epsPrime {
		return false
	}
	return c.Fep(faults, cap) <= eps-epsPrime
}

// CrashTolerates is the crash case of Theorem 3.
func (c *Certifier) CrashTolerates(faults []int, eps, epsPrime float64) bool {
	return c.Tolerates(faults, c.s.ActCap, eps, epsPrime)
}

// RequiredSignals is Corollary 2. The returned slice is owned by the
// certifier and overwritten by the next call — copy it to retain it.
func (c *Certifier) RequiredSignals(faults []int) []int {
	c.s.checkFaults(faults)
	for l, f := range faults {
		c.signals[l] = c.s.Widths[l] - f
	}
	return c.signals
}
