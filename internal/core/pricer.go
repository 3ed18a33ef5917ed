package core

import (
	"math"

	"repro/internal/nn"
)

// Pricer is the certificate query surface shared by the layered
// Certifier (the paper's closed form) and the per-node NodeShape:
// every front end prices bounds through it, and PricerFor is the one
// place that chooses the algebra backing a model.
type Pricer interface {
	Fep(faults []int, c float64) float64
	CrashFep(faults []int) float64
	SynapseFep(faults []int, c float64) float64
	Tolerates(faults []int, c, eps, epsPrime float64) bool
	CrashTolerates(faults []int, eps, epsPrime float64) bool
	RequiredSignals(faults []int) []int
	// synapseCap bounds the synapse faults level l (1..L+1) can host.
	synapseCap(l int) int
}

// PricerFor chooses the bound algebra for m and returns a constructor
// of pricers for it. Layered models get the closed form: a fresh
// Certifier per call (Certifiers are not safe for concurrent use),
// all sharing one Shape. Other models get the per-node NodeShape,
// because the layered algebra assumes every edge spans one level and
// is unsound under skip connections; it is immutable and safe for
// concurrent use, so every call returns the same one, built once.
func PricerFor(m nn.Model) (newPricer func() Pricer, err error) {
	if !nn.IsLayered(m) {
		ns, err := NodeShapeOf(m)
		if err != nil {
			return nil, err
		}
		return func() Pricer { return ns }, nil
	}
	s := ShapeOfModel(m)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return func() Pricer { return newCertifier(s) }, nil
}

// SynapseFaults derives the synapse distribution a bounds query prices
// next to the neuron distribution faults: level l's neuron-fault count
// becomes its synapse-fault count, the output synapses get none, and a
// sparse level is capped at the in-edges it actually has (beyond that
// every edge into the level is already faulty). It writes dst, which
// needs room for len(faults)+1 entries, and returns it resliced, so a
// caller holding a buffer allocates nothing.
func SynapseFaults(p Pricer, dst, faults []int) []int {
	dst = dst[:len(faults)+1]
	copy(dst, faults)
	dst[len(faults)] = 0
	for l := range dst {
		dst[l] = min(dst[l], p.synapseCap(l+1))
	}
	return dst
}

// synapseCap never binds on a layered shape: level l has full fan-in,
// at least as many in-edges as the N_l nodes a neuron count can name.
func (c *Certifier) synapseCap(int) int { return math.MaxInt }

func (ns *NodeShape) synapseCap(l int) int { return ns.SynapseCount(l) }
