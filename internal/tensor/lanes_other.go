//go:build !amd64

package tensor

// hasAVX2 is false off amd64: the pure-Go paired kernel is the only
// path. It is a variable, as on amd64, so tests can switch the AVX2
// kernels off on either architecture.
var hasAVX2 = false

func dot8x4(row []float64, xs *[8][]float64, acc *[32]float64) {
	panic("tensor: dot8x4 has no kernel on this architecture")
}

func csrGather4(ptr *int32, rows int, idx *int32, w *float64, x *float64, ys *[4]*float64, b *float64) {
	panic("tensor: csrGather4 has no kernel on this architecture")
}
