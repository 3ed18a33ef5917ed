// Package activation implements the squashing functions of the paper's
// computation model (Section II-A). Every function carries its Lipschitz
// constant K — the quantity the Forward Error Propagation bound depends on
// — together with its range, so that the bound code can query sup|ϕ|
// (which replaces the capacity C in the crash case) directly from the
// function rather than assuming sigmoid.
//
// The paper tunes K by composing: sigmoid is 1/4-Lipschitz, so
// x ↦ sigmoid(4Kx) is K-Lipschitz (Figure 2). Sigmoid(K) implements
// exactly that family.
package activation

import (
	"fmt"
	"math"
)

// Func is a neural activation (squashing) function with known analytic
// properties.
type Func interface {
	// Eval returns ϕ(x).
	Eval(x float64) float64
	// Deriv returns ϕ'(x); used by backpropagation.
	Deriv(x float64) float64
	// Lipschitz returns the (smallest) Lipschitz constant K of ϕ.
	Lipschitz() float64
	// Min and Max bound the range of ϕ. MaxAbs of the range bounds the
	// value a crashed neuron stops contributing (C in the crash case of
	// Theorem 3 is max(|Min|, |Max|)).
	Min() float64
	Max() float64
	// Name identifies the function in tables and serialised networks.
	Name() string
}

// RangeAbs returns sup_x |ϕ(x)|, the effective per-neuron output cap used
// for crash failures (Section IV-B: "C can be replaced by the maximum of
// the activation function").
func RangeAbs(f Func) float64 {
	return math.Max(math.Abs(f.Min()), math.Abs(f.Max()))
}

// Sigmoid is the K-tuned logistic function ϕ(x) = 1/(1+exp(-4Kx)).
// It is K-Lipschitz, strictly increasing, with range (0, 1), and satisfies
// the hypotheses of the universality theorem for every K > 0.
type Sigmoid struct {
	K float64
}

// NewSigmoid returns the K-tuned sigmoid; K must be positive.
func NewSigmoid(k float64) Sigmoid {
	if k <= 0 {
		panic("activation: sigmoid requires K > 0")
	}
	return Sigmoid{K: k}
}

// StandardSigmoid is the untuned logistic function (K = 1/4).
func StandardSigmoid() Sigmoid { return Sigmoid{K: 0.25} }

func (s Sigmoid) Eval(x float64) float64 {
	return 1 / (1 + math.Exp(-4*s.K*x))
}

func (s Sigmoid) Deriv(x float64) float64 {
	y := s.Eval(x)
	return 4 * s.K * y * (1 - y)
}

func (s Sigmoid) Lipschitz() float64 { return s.K }
func (s Sigmoid) Min() float64       { return 0 }
func (s Sigmoid) Max() float64       { return 1 }
func (s Sigmoid) Name() string       { return fmt.Sprintf("sigmoid(K=%g)", s.K) }

// Tanh is the K-tuned hyperbolic tangent ϕ(x) = tanh(Kx), K-Lipschitz with
// range (-1, 1).
type Tanh struct {
	K float64
}

// NewTanh returns the K-tuned tanh; K must be positive.
func NewTanh(k float64) Tanh {
	if k <= 0 {
		panic("activation: tanh requires K > 0")
	}
	return Tanh{K: k}
}

func (t Tanh) Eval(x float64) float64 { return math.Tanh(t.K * x) }

func (t Tanh) Deriv(x float64) float64 {
	y := math.Tanh(t.K * x)
	return t.K * (1 - y*y)
}

func (t Tanh) Lipschitz() float64 { return t.K }
func (t Tanh) Min() float64       { return -1 }
func (t Tanh) Max() float64       { return 1 }
func (t Tanh) Name() string       { return fmt.Sprintf("tanh(K=%g)", t.K) }

// HardSigmoid is the piecewise-linear saturating ramp
// ϕ(x) = clamp(Kx + 1/2, 0, 1). It is exactly K-Lipschitz and attains its
// bounds, which makes the tightness experiments sharp: the equality cases
// of Theorem 2 require activations to reach sup ϕ, which smooth sigmoids
// only approach asymptotically.
type HardSigmoid struct {
	K float64
}

// NewHardSigmoid returns the ramp with slope K; K must be positive.
func NewHardSigmoid(k float64) HardSigmoid {
	if k <= 0 {
		panic("activation: hard sigmoid requires K > 0")
	}
	return HardSigmoid{K: k}
}

func (h HardSigmoid) Eval(x float64) float64 {
	y := h.K*x + 0.5
	if y < 0 {
		return 0
	}
	if y > 1 {
		return 1
	}
	return y
}

func (h HardSigmoid) Deriv(x float64) float64 {
	y := h.K*x + 0.5
	if y <= 0 || y >= 1 {
		return 0
	}
	return h.K
}

func (h HardSigmoid) Lipschitz() float64 { return h.K }
func (h HardSigmoid) Min() float64       { return 0 }
func (h HardSigmoid) Max() float64       { return 1 }
func (h HardSigmoid) Name() string       { return fmt.Sprintf("hardsigmoid(K=%g)", h.K) }

// ReLU is the rectifier max(0, x). It is 1-Lipschitz but unbounded above;
// it violates the boundedness hypothesis of the universality theorem and
// of the crash-case substitution C = sup ϕ, so bound code must treat
// ReLU networks through explicit activation caps. It is provided because
// the trade-off discussion (Section V-C) is often asked about for modern
// rectifier networks.
type ReLU struct{}

func (ReLU) Eval(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

func (ReLU) Deriv(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1
}

func (ReLU) Lipschitz() float64 { return 1 }
func (ReLU) Min() float64       { return 0 }
func (ReLU) Max() float64       { return math.Inf(1) }
func (ReLU) Name() string       { return "relu" }

// Identity is ϕ(x) = x, used for linear layers in tests.
type Identity struct{}

func (Identity) Eval(x float64) float64  { return x }
func (Identity) Deriv(x float64) float64 { return 1 }
func (Identity) Lipschitz() float64      { return 1 }
func (Identity) Min() float64            { return math.Inf(-1) }
func (Identity) Max() float64            { return math.Inf(1) }
func (Identity) Name() string            { return "identity" }

// Eval applies f to every element of src, writing into dst (which may
// alias src). It panics if lengths differ. The known concrete functions
// are special-cased so the hot loop runs without an interface dispatch
// per element; each fast path performs the exact arithmetic of the
// corresponding Eval method, so results are bit-identical.
func Eval(f Func, dst, src []float64) {
	if len(dst) != len(src) {
		panic("activation: Eval length mismatch")
	}
	dst = dst[:len(src)]
	switch g := f.(type) {
	case Sigmoid:
		k := -4 * g.K
		for i, v := range src {
			dst[i] = 1 / (1 + math.Exp(k*v))
		}
	case Tanh:
		for i, v := range src {
			dst[i] = math.Tanh(g.K * v)
		}
	case HardSigmoid:
		for i, v := range src {
			y := g.K*v + 0.5
			if y < 0 {
				y = 0
			} else if y > 1 {
				y = 1
			}
			dst[i] = y
		}
	case ReLU:
		for i, v := range src {
			if v < 0 {
				v = 0
			}
			dst[i] = v
		}
	case Identity:
		copy(dst, src)
	default:
		for i, v := range src {
			dst[i] = f.Eval(v)
		}
	}
}

// FromName reconstructs an activation from its serialised name.
func FromName(name string) (Func, error) {
	var k float64
	switch {
	case name == "relu":
		return ReLU{}, nil
	case name == "identity":
		return Identity{}, nil
	case scanK(name, "sigmoid(K=%g)", &k):
		return NewSigmoid(k), nil
	case scanK(name, "tanh(K=%g)", &k):
		return NewTanh(k), nil
	case scanK(name, "hardsigmoid(K=%g)", &k):
		return NewHardSigmoid(k), nil
	}
	return nil, fmt.Errorf("activation: unknown function %q", name)
}

func scanK(name, format string, k *float64) bool {
	n, err := fmt.Sscanf(name, format, k)
	return err == nil && n == 1 && *k > 0
}

// EvalAt applies f in place to s[i] for every i in idx, leaving the
// other entries alone: each written entry is the one Eval(f, s, s)
// would produce. The sigmoid, the activation of every generated model,
// runs Eval's fast-path expression without a dispatch per entry; the
// other functions go through Eval one entry at a time.
func EvalAt(f Func, s []float64, idx []int) {
	if g, ok := f.(Sigmoid); ok {
		k := -4 * g.K
		for _, i := range idx {
			s[i] = 1 / (1 + math.Exp(k*s[i]))
		}
		return
	}
	for _, i := range idx {
		Eval(f, s[i:i+1], s[i:i+1])
	}
}
