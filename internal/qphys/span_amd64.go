//go:build amd64

package qphys

// useSIMD selects the AVX2 span kernels. Resolved once at package init:
// the CPU must implement AVX2 with OS-enabled YMM state (CPUID +
// XGETBV), and the QUMA_NOSIMD kill switch must be unset. The per-call
// wrappers additionally require an even lane count; everything else
// takes the bit-identical pure-Go bodies.
var useSIMD = cpuSupportsAVX2() && !simdDisabled()

// useSIMD512 additionally selects the AVX-512 (ZMM) bodies of the
// whole-block kernels where they exist; per call the lane count must be
// a multiple of 4 so the 64-byte step divides the duplicated-array wrap
// and every swap period. The same QUMA_NOSIMD switch disables it.
var useSIMD512 = cpuSupportsAVX512() && !simdDisabled()

// cpuSupportsAVX2 reports AVX2 with OS-saved YMM state (CPUID leaf 1
// OSXSAVE+AVX, XGETBV XMM+YMM, CPUID leaf 7 AVX2). Implemented in
// span_amd64.s.
func cpuSupportsAVX2() bool

// cpuSupportsAVX512 reports AVX-512 F+DQ with OS-enabled ZMM and
// opmask state (XGETBV bits 1,2,5,6,7). Implemented in span_amd64.s.
func cpuSupportsAVX512() bool

//go:noescape
func spanScaleBlocksASM(span []complex128, cA, cB []float64, blkC int)

//go:noescape
func spanAccBlocksASM(span []complex128, aA, aB []float64, blkA int)

//go:noescape
func spanScaleAccBlocksASM(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int)

//go:noescape
func spanApply1RDBlocksASM(span []complex128, maskL int, r00, r11, u01re, u01im, u10re, u10im float64)

//go:noescape
func spanNegBothBlocksASM(span []complex128, hiL, loL int)

//go:noescape
func spanCollapseBlocksASM(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int)

//go:noescape
func spanScaleBlocksAVX512(span []complex128, cA, cB []float64, blkC int)

//go:noescape
func spanAccBlocksAVX512(span []complex128, aA, aB []float64, blkA int)

//go:noescape
func spanScaleAccBlocksAVX512(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int)

//go:noescape
func spanCollapseBlocksAVX512(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int)

//go:noescape
func spanAccBlocksZ8(span []complex128, aA, aB []float64, blkA int)

//go:noescape
func spanScaleAccBlocksZ8(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int)

//go:noescape
func spanCollapseBlocksZ8(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int)

//go:noescape
func spanApply1RDBlocksAVX512(span []complex128, maskL int, r00, r11, u01re, u01im, u10re, u10im float64)

//go:noescape
func spanScaleBlocksZ8(span []complex128, cA, cB []float64, blkC int)
