package tensor

// hasAVX2 reports whether the CPU and operating system support the
// 8-lane AVX2 kernel: the AVX and AVX2 feature bits, OSXSAVE, and the
// XMM and YMM state enabled in XCR0 (read with XGETBV). It is decided
// once, at start-up, from CPUID alone.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM (bit 1) and YMM (bit 2) state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// dot8x4 accumulates Dot's four partial sums of row against eight lanes
// at once: acc[4j+e] is lane xs[j]'s s_e over the first 4⌊len(row)/4⌋
// columns, column i feeding s_(i mod 4) in ascending order. It uses
// separate multiplies and adds, never FMA, so every partial sum rounds
// exactly as Dot's does. It reads only the first 4⌊len(row)/4⌋
// elements of row and of each lane; the caller checks the lengths.
//
//go:noescape
func dot8x4(row []float64, xs *[8][]float64, acc *[32]float64)

// csrGather4 sums rows consecutive rows of a CSR view for four lanes
// whose sources x interleaves (x[4c+k] is lane k's value at column c),
// slot s reading column idx[s] with weight w[s], and writes lane k's
// row i to ys[k][i] (plus b[i] when b is non-nil). Every accumulator
// adds in Dot's order with unfused multiplies and adds, so each result
// is bitwise the single-lane kernel's. The caller checks every bound:
// ptr holds rows+1 slot offsets, every slot's column lies inside x, and
// every output holds rows entries.
//
//go:noescape
func csrGather4(ptr *int32, rows int, idx *int32, w *float64, x *float64, ys *[4]*float64, b *float64)
