//go:build !amd64

package qphys

// Non-amd64 builds have no SIMD span kernels; the wrappers always take
// the pure-Go bodies. Per-lane bit-identity holds architecture-wide
// regardless: the batch and scalar paths compile from the same Go
// expressions, so any contraction decision the compiler makes (none on
// amd64, FMA on arm64 applies to neither side's separate mul/add
// chains) affects both identically.
var useSIMD = false

var useSIMD512 = false

func cpuSupportsAVX2() bool { return false }

func cpuSupportsAVX512() bool { return false }

func spanScaleBlocksASM(span []complex128, cA, cB []float64, blkC int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanAccBlocksASM(span []complex128, aA, aB []float64, blkA int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanScaleAccBlocksASM(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanApply1RDBlocksASM(span []complex128, maskL int, r00, r11, u01re, u01im, u10re, u10im float64) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanNegBothBlocksASM(span []complex128, hiL, loL int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanCollapseBlocksASM(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanScaleBlocksAVX512(span []complex128, cA, cB []float64, blkC int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanAccBlocksAVX512(span []complex128, aA, aB []float64, blkA int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanScaleAccBlocksAVX512(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanCollapseBlocksAVX512(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanAccBlocksZ8(span []complex128, aA, aB []float64, blkA int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanScaleAccBlocksZ8(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanCollapseBlocksZ8(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanApply1RDBlocksAVX512(span []complex128, maskL int, r00, r11, u01re, u01im, u10re, u10im float64) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}

func spanScaleBlocksZ8(span []complex128, cA, cB []float64, blkC int) {
	panic("qphys: SIMD span kernel on unsupported architecture")
}
