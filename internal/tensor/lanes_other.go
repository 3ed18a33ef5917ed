//go:build !amd64

package tensor

// hasAVX2 is false off amd64: the pure-Go paired kernel is the only path.
const hasAVX2 = false

func dot8x4(row []float64, xs *[8][]float64, acc *[32]float64) {
	panic("tensor: dot8x4 has no kernel on this architecture")
}
