//go:build amd64

#include "textflag.h"

// SIMD bodies of the span primitives (batch_span.go), in three tiers:
// AVX2 (YMM, the *ASM bodies), AVX-512 (ZMM, the *AVX512 bodies) and
// 8-lane ZMM specializations (the *Z8 bodies). The wrappers in
// batch_span.go pick the tier per call and hold each body's
// preconditions. The bit-identity obligations are spelled out there;
// in short: every arithmetic instruction is an
// IEEE-754 binary64 operation in the prevailing round-to-nearest mode,
// matching the gc compiler's scalar lowering one rounding for one
// rounding (no FMA contraction anywhere), and the only reorderings are
// commuted additions, which are bitwise-neutral.
//
// Register conventions shared by the block walkers:
//   SI moving span pointer, BX span end pointer,
//   AX rolling byte cursor into the duplicated per-lane arrays,
//   DX duplicated-array byte length (16·L — one span row; the span
//      and per-lane cursors advance in lockstep and wrap together),
//   CX/R10 current/other coefficient base (swapped every blkC),
//   R8/R9 current/other accumulator base (swapped every blkA),
//   R12/R13 byte countdowns to the next coefficient/accumulator swap.
// Each AVX2 iteration handles one YMM register: 2 complex128
// amplitudes, congruent with 4 float64 of a duplicated array. The
// even-L gate in the wrappers guarantees the 32-byte step divides both
// swap periods and the wrap length, so a vector never straddles a
// boundary. The one-lane anti walk (spanAntiLaneASM) is the exception:
// its YMM holds the two members of one amplitude pair, loaded from
// and stored to their own 16-byte slots, so it takes any lane count.

// func cpuSupportsAVX2() bool
TEXT ·cpuSupportsAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0 bits 1 and 2: XMM and YMM state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.(EAX=7,ECX=0).EBX bit 5: AVX2. Any CPU with AVX has leaf 7.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func cpuSupportsAVX512() bool
TEXT ·cpuSupportsAVX512(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no512
	// XCR0 bits 1,2 (XMM, YMM) and 5,6,7 (opmask, ZMM0-15 hi256,
	// ZMM16-31): the OS saves full AVX-512 state.
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	// CPUID.(EAX=7,ECX=0).EBX bit 16: AVX512F; bit 17: AVX512DQ
	// (VANDPD/VXORPD on ZMM).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, DX
	ANDL $0x10000, DX
	JZ   no512
	ANDL $0x20000, BX
	JZ   no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET

// func spanScaleBlocksASM(span []complex128, cA, cB []float64, blkC int)
TEXT ·spanScaleBlocksASM(SB), NOSPLIT, $0-80
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ cA_base+24(FP), CX
	MOVQ cA_len+32(FP), DX
	SHLQ $3, DX
	MOVQ cB_base+48(FP), R10
	MOVQ blkC+72(FP), R12
	SHLQ $4, R12
	MOVQ R12, R11
	XORQ AX, AX

scloop:
	CMPQ    SI, BX
	JGE     scdone
	VMOVUPD (SI), Y0
	VMULPD  (CX)(AX*1), Y0, Y0
	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     scnowrap
	XORQ    AX, AX

scnowrap:
	SUBQ  $32, R12
	JNZ   scloop
	XCHGQ CX, R10
	MOVQ  R11, R12
	JMP   scloop

scdone:
	VZEROUPPER
	RET

// func spanAccBlocksASM(span []complex128, aA, aB []float64, blkA int)
//
// acc[slot] += re²+im² per element. The squared vector [re², im²] is
// added to its own in-lane swap [im², re²], yielding the per-element
// sum in both slots (commuted in one — bitwise equal), so both
// duplicated slots receive identical updates.
TEXT ·spanAccBlocksASM(SB), NOSPLIT, $0-80
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ aA_base+24(FP), R8
	MOVQ aA_len+32(FP), DX
	SHLQ $3, DX
	MOVQ aB_base+48(FP), R9
	MOVQ blkA+72(FP), R13
	SHLQ $4, R13
	MOVQ R13, R11
	XORQ AX, AX

acloop:
	CMPQ    SI, BX
	JGE     acdone
	VMOVUPD (SI), Y0
	VMULPD  Y0, Y0, Y1
	VSHUFPD $5, Y1, Y1, Y2
	VADDPD  Y2, Y1, Y1
	VADDPD  (R8)(AX*1), Y1, Y1
	VMOVUPD Y1, (R8)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     acnowrap
	XORQ    AX, AX

acnowrap:
	SUBQ  $32, R13
	JNZ   acloop
	XCHGQ R8, R9
	MOVQ  R11, R13
	JMP   acloop

acdone:
	VZEROUPPER
	RET

// func spanScaleAccBlocksASM(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int)
TEXT ·spanScaleAccBlocksASM(SB), NOSPLIT, $0-136
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ cA_base+24(FP), CX
	MOVQ cA_len+32(FP), DX
	SHLQ $3, DX
	MOVQ cB_base+48(FP), R10
	MOVQ aA_base+72(FP), R8
	MOVQ aB_base+96(FP), R9
	MOVQ blkC+120(FP), R12
	SHLQ $4, R12
	MOVQ blkA+128(FP), R13
	SHLQ $4, R13
	XORQ AX, AX

scaloop:
	CMPQ    SI, BX
	JGE     scaldone
	VMOVUPD (SI), Y0
	VMULPD  (CX)(AX*1), Y0, Y0
	VMOVUPD Y0, (SI)
	VMULPD  Y0, Y0, Y1
	VSHUFPD $5, Y1, Y1, Y2
	VADDPD  Y2, Y1, Y1
	VADDPD  (R8)(AX*1), Y1, Y1
	VMOVUPD Y1, (R8)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     scalnowrap
	XORQ    AX, AX

scalnowrap:
	SUBQ  $32, R12
	JNZ   scalcheckA
	XCHGQ CX, R10
	MOVQ  blkC+120(FP), R12
	SHLQ  $4, R12

scalcheckA:
	SUBQ  $32, R13
	JNZ   scaloop
	XCHGQ R8, R9
	MOVQ  blkA+128(FP), R13
	SHLQ  $4, R13
	JMP   scaloop

scaldone:
	VZEROUPPER
	RET

// func spanApply1RDBlocksASM(span []complex128, maskL int, r00, r11, u01re, u01im, u10re, u10im float64)
//
// Apply1RD's pair update, 2 pairs per iteration; pairs sit maskL
// elements apart within each 2·maskL group. The complex products
// u01·a1 and u10·a0 are formed as VMULPD/VMULPD/VADDSUBPD — exactly
// the separate-multiply, separate-add/sub sequence the gc compiler
// emits for a complex128 multiply: re = xre·are − xim·aim,
// im = xre·aim + xim·are, one rounding each.
TEXT ·spanApply1RDBlocksASM(SB), NOSPLIT, $0-80
	MOVQ         span_base+0(FP), SI
	MOVQ         span_len+8(FP), BX
	SHLQ         $4, BX
	ADDQ         SI, BX
	MOVQ         maskL+24(FP), R11
	SHLQ         $4, R11
	VBROADCASTSD r00+32(FP), Y8
	VBROADCASTSD r11+40(FP), Y9
	VBROADCASTSD u01re+48(FP), Y10
	VBROADCASTSD u01im+56(FP), Y11
	VBROADCASTSD u10re+64(FP), Y12
	VBROADCASTSD u10im+72(FP), Y13

rdouter:
	CMPQ SI, BX
	JGE  rddone
	LEAQ (SI)(R11*1), DI
	XORQ AX, AX

rdinner:
	VMOVUPD (SI)(AX*1), Y0            // a0
	VMOVUPD (DI)(AX*1), Y1            // a1

	// x = u01·a1
	VSHUFPD   $5, Y1, Y1, Y2          // [a1im, a1re]
	VMULPD    Y1, Y10, Y3             // [xre·a1re, xre·a1im]
	VMULPD    Y2, Y11, Y4             // [xim·a1im, xim·a1re]
	VADDSUBPD Y4, Y3, Y3              // [xre·a1re − xim·a1im, xre·a1im + xim·a1re]

	// y = u10·a0
	VSHUFPD   $5, Y0, Y0, Y2
	VMULPD    Y0, Y12, Y5
	VMULPD    Y2, Y13, Y4
	VADDSUBPD Y4, Y5, Y5

	// lo' = a0·r00 + x
	VMULPD  Y0, Y8, Y6
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y6, (SI)(AX*1)

	// hi' = y + a1·r11
	VMULPD  Y1, Y9, Y7
	VADDPD  Y7, Y5, Y7
	VMOVUPD Y7, (DI)(AX*1)

	ADDQ $32, AX
	CMPQ AX, R11
	JLT  rdinner
	LEAQ (DI)(R11*1), SI
	JMP  rdouter

rddone:
	VZEROUPPER
	RET

DATA  negmask<>+0(SB)/8, $0x8000000000000000
GLOBL negmask<>(SB), RODATA, $8

// func spanNegBothBlocksASM(span []complex128, hiL, loL int)
//
// Sign-bit flip (VXORPD with the sign mask) of the CZ-selected runs:
// bit-level negation, no rounding involved at all.
TEXT ·spanNegBothBlocksASM(SB), NOSPLIT, $0-40
	MOVQ         span_base+0(FP), SI
	MOVQ         span_len+8(FP), BX
	SHLQ         $4, BX
	ADDQ         SI, BX
	MOVQ         hiL+24(FP), R10
	SHLQ         $4, R10
	MOVQ         loL+32(FP), R11
	SHLQ         $4, R11
	VBROADCASTSD negmask<>(SB), Y15
	ADDQ         R10, SI

nbouter:
	CMPQ SI, BX
	JGE  nbdone
	LEAQ (SI)(R11*1), DI
	LEAQ (SI)(R10*1), R12

nbinner:
	CMPQ DI, R12
	JGE  nbnextouter
	LEAQ (DI)(R11*1), R13

nbseg:
	VMOVUPD (DI), Y0
	VXORPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	CMPQ    DI, R13
	JLT     nbseg
	ADDQ    R11, DI
	JMP     nbinner

nbnextouter:
	LEAQ (SI)(R10*2), SI
	JMP  nbouter

nbdone:
	VZEROUPPER
	RET

// func spanAntiLaneASM(span []complex128, l, L, mL int, c01re, c01im, c10re, c10im float64)
//
// One amplitude pair per iteration, walking lane l's column: a0 at p
// and a1 at p+mL are loaded as one YMM in swapped order, [a1 | a0],
// and multiplied by [c01 | c10] the way the gc compiler lowers a
// complex128 multiply. VPERMILPD swaps each element's parts, two
// VMULPDs form [cre·are, cre·aim] and [cim·aim, cim·are], and
// VADDSUBPD combines them into [cre·are − cim·aim, cre·aim + cim·are],
// one rounding each. The low half (c01·a1) goes back to p, the high
// half (c10·a0) to p+mL. Byte offsets of the lane and the strides are
// all multiples of 16, so any lane count works.
TEXT ·spanAntiLaneASM(SB), NOSPLIT, $0-80
	MOVQ         span_base+0(FP), SI
	MOVQ         span_len+8(FP), BX
	SHLQ         $4, BX
	ADDQ         SI, BX
	MOVQ         l+24(FP), AX
	SHLQ         $4, AX
	ADDQ         AX, SI
	MOVQ         L+32(FP), R10
	SHLQ         $4, R10
	MOVQ         mL+40(FP), R11
	SHLQ         $4, R11
	VBROADCASTSD c01re+48(FP), Y8
	VBROADCASTSD c10re+64(FP), Y0
	VBLENDPD     $0x0C, Y0, Y8, Y8    // [c01re, c01re, c10re, c10re]
	VBROADCASTSD c01im+56(FP), Y9
	VBROADCASTSD c10im+72(FP), Y0
	VBLENDPD     $0x0C, Y0, Y9, Y9    // [c01im, c01im, c10im, c10im]

alouter:
	CMPQ SI, BX
	JGE  aldone
	LEAQ (SI)(R11*1), DI              // end of the group's lo half

alinner:
	VMOVUPD      (SI)(R11*1), X0      // a1
	VINSERTF128  $1, (SI), Y0, Y0     // [a1 | a0]
	VPERMILPD    $5, Y0, Y1           // [a1im, a1re | a0im, a0re]
	VMULPD       Y0, Y8, Y2
	VMULPD       Y1, Y9, Y3
	VADDSUBPD    Y3, Y2, Y2           // [c01·a1 | c10·a0]
	VMOVUPD      X2, (SI)
	VEXTRACTF128 $1, Y2, (SI)(R11*1)
	ADDQ         R10, SI
	CMPQ         SI, DI
	JLT          alinner
	ADDQ         R11, SI
	JMP          alouter

aldone:
	VZEROUPPER
	RET

// func spanCollapseBlocksASM(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int)
//
// Scale by the per-lane coefficient (VMULPD — the scalar collapse's
// exact multiply), mask with the per-lane keep-mask (VANDPD: all-ones
// passes the product bits through untouched, all-zeros forces the
// scalar collapse's literal +0), accumulate |new|² into the per-lane
// accumulator (same self-swap-add trick as spanAccBlocksASM). The
// mask pair swaps every blk elements; the coefficient and accumulator
// streams are fixed.
TEXT ·spanCollapseBlocksASM(SB), NOSPLIT, $0-128
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ cc_base+24(FP), CX
	MOVQ cc_len+32(FP), DX
	SHLQ $3, DX
	MOVQ mA_base+48(FP), R10
	MOVQ mB_base+72(FP), R11
	MOVQ acc_base+96(FP), R8
	MOVQ blk+120(FP), R12
	SHLQ $4, R12
	MOVQ R12, R9
	XORQ AX, AX

cploop:
	CMPQ    SI, BX
	JGE     cpdone
	VMOVUPD (SI), Y0
	VMULPD  (CX)(AX*1), Y0, Y0
	VANDPD  (R10)(AX*1), Y0, Y0
	VMOVUPD Y0, (SI)
	VMULPD  Y0, Y0, Y1
	VSHUFPD $5, Y1, Y1, Y2
	VADDPD  Y2, Y1, Y1
	VADDPD  (R8)(AX*1), Y1, Y1
	VMOVUPD Y1, (R8)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     cpnowrap
	XORQ    AX, AX

cpnowrap:
	SUBQ  $32, R12
	JNZ   cploop
	XCHGQ R10, R11
	MOVQ  R9, R12
	JMP   cploop

cpdone:
	VZEROUPPER
	RET
// AVX-512 bodies of the whole-block walkers: the same walks with a
// 64-byte step (4 complex128 / 8 duplicated floats per iteration).
// VSHUFPD's $0x55 immediate swaps within each 128-bit pair across the
// full ZMM, so the |a|² self-swap-add trick carries over unchanged.
// The wrappers gate on a lane count divisible by 4, making 64 bytes
// divide the duplicated wrap and both swap periods.

// func spanScaleBlocksAVX512(span []complex128, cA, cB []float64, blkC int)
TEXT ·spanScaleBlocksAVX512(SB), NOSPLIT, $0-80
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ cA_base+24(FP), CX
	MOVQ cA_len+32(FP), DX
	SHLQ $3, DX
	MOVQ cB_base+48(FP), R10
	MOVQ blkC+72(FP), R12
	SHLQ $4, R12
	MOVQ R12, R11
	XORQ AX, AX

zscloop:
	CMPQ    SI, BX
	JGE     zscdone
	VMOVUPD (SI), Z0
	VMULPD  (CX)(AX*1), Z0, Z0
	VMOVUPD Z0, (SI)
	ADDQ    $64, SI
	ADDQ    $64, AX
	CMPQ    AX, DX
	JLT     zscnowrap
	XORQ    AX, AX

zscnowrap:
	SUBQ  $64, R12
	JNZ   zscloop
	XCHGQ CX, R10
	MOVQ  R11, R12
	JMP   zscloop

zscdone:
	VZEROUPPER
	RET

// func spanAccBlocksAVX512(span []complex128, aA, aB []float64, blkA int)
TEXT ·spanAccBlocksAVX512(SB), NOSPLIT, $0-80
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ aA_base+24(FP), R8
	MOVQ aA_len+32(FP), DX
	SHLQ $3, DX
	MOVQ aB_base+48(FP), R9
	MOVQ blkA+72(FP), R13
	SHLQ $4, R13
	MOVQ R13, R11
	XORQ AX, AX

zacloop:
	CMPQ    SI, BX
	JGE     zacdone
	VMOVUPD (SI), Z0
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  (R8)(AX*1), Z1, Z1
	VMOVUPD Z1, (R8)(AX*1)
	ADDQ    $64, SI
	ADDQ    $64, AX
	CMPQ    AX, DX
	JLT     zacnowrap
	XORQ    AX, AX

zacnowrap:
	SUBQ  $64, R13
	JNZ   zacloop
	XCHGQ R8, R9
	MOVQ  R11, R13
	JMP   zacloop

zacdone:
	VZEROUPPER
	RET

// func spanScaleAccBlocksAVX512(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int)
TEXT ·spanScaleAccBlocksAVX512(SB), NOSPLIT, $0-136
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ cA_base+24(FP), CX
	MOVQ cA_len+32(FP), DX
	SHLQ $3, DX
	MOVQ cB_base+48(FP), R10
	MOVQ aA_base+72(FP), R8
	MOVQ aB_base+96(FP), R9
	MOVQ blkC+120(FP), R12
	SHLQ $4, R12
	MOVQ blkA+128(FP), R13
	SHLQ $4, R13
	XORQ AX, AX

zsaloop:
	CMPQ    SI, BX
	JGE     zsadone
	VMOVUPD (SI), Z0
	VMULPD  (CX)(AX*1), Z0, Z0
	VMOVUPD Z0, (SI)
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  (R8)(AX*1), Z1, Z1
	VMOVUPD Z1, (R8)(AX*1)
	ADDQ    $64, SI
	ADDQ    $64, AX
	CMPQ    AX, DX
	JLT     zsanowrap
	XORQ    AX, AX

zsanowrap:
	SUBQ  $64, R12
	JNZ   zsacheckA
	XCHGQ CX, R10
	MOVQ  blkC+120(FP), R12
	SHLQ  $4, R12

zsacheckA:
	SUBQ  $64, R13
	JNZ   zsaloop
	XCHGQ R8, R9
	MOVQ  blkA+128(FP), R13
	SHLQ  $4, R13
	JMP   zsaloop

zsadone:
	VZEROUPPER
	RET

// func spanCollapseBlocksAVX512(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int)
TEXT ·spanCollapseBlocksAVX512(SB), NOSPLIT, $0-128
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ cc_base+24(FP), CX
	MOVQ cc_len+32(FP), DX
	SHLQ $3, DX
	MOVQ mA_base+48(FP), R10
	MOVQ mB_base+72(FP), R11
	MOVQ acc_base+96(FP), R8
	MOVQ blk+120(FP), R12
	SHLQ $4, R12
	MOVQ R12, R9
	XORQ AX, AX

zcploop:
	CMPQ    SI, BX
	JGE     zcpdone
	VMOVUPD (SI), Z0
	VMULPD  (CX)(AX*1), Z0, Z0
	VANDPD  (R10)(AX*1), Z0, Z0
	VMOVUPD Z0, (SI)
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  (R8)(AX*1), Z1, Z1
	VMOVUPD Z1, (R8)(AX*1)
	ADDQ    $64, SI
	ADDQ    $64, AX
	CMPQ    AX, DX
	JLT     zcpnowrap
	XORQ    AX, AX

zcpnowrap:
	SUBQ  $64, R12
	JNZ   zcploop
	XCHGQ R10, R11
	MOVQ  R9, R12
	JMP   zcploop

zcpdone:
	VZEROUPPER
	RET
// 8-lane specializations of the accumulating walkers. With L = 8 a
// duplicated per-lane array is exactly 16 float64 = two ZMM registers,
// so the accumulators live in registers for the whole pass — the
// generic bodies' store-to-load round trip through the accumulator
// array every other iteration is the dependency chain that bounds
// them, not vector width. One loop iteration handles one span row
// (128 bytes); every swap period is a multiple of the row, so phase
// changes only happen between iterations. Accumulator phase switches
// jump between two loop bodies (no data movement); the coefficient /
// mask streams stay memory loads with base-pointer exchange. The
// per-slot addition order is unchanged from the generic bodies.

// func spanScaleAccBlocksZ8(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int)
TEXT ·spanScaleAccBlocksZ8(SB), NOSPLIT, $0-136
	MOVQ    span_base+0(FP), SI
	MOVQ    span_len+8(FP), BX
	SHLQ    $4, BX
	ADDQ    SI, BX
	MOVQ    cA_base+24(FP), CX
	MOVQ    cB_base+48(FP), R10
	MOVQ    aA_base+72(FP), R8
	MOVQ    aB_base+96(FP), R9
	MOVQ    blkC+120(FP), R12
	SHLQ    $4, R12
	MOVQ    blkA+128(FP), R13
	SHLQ    $4, R13
	VMOVUPD (R8), Z4
	VMOVUPD 64(R8), Z5
	VMOVUPD (R9), Z6
	VMOVUPD 64(R9), Z7

z8saA:
	CMPQ    SI, BX
	JGE     z8sadone
	VMOVUPD (SI), Z0
	VMULPD  (CX), Z0, Z0
	VMOVUPD Z0, (SI)
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z4, Z4
	VMOVUPD 64(SI), Z0
	VMULPD  64(CX), Z0, Z0
	VMOVUPD Z0, 64(SI)
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z5, Z5
	ADDQ    $128, SI
	SUBQ    $128, R12
	JNZ     z8saAckA
	XCHGQ   CX, R10
	MOVQ    blkC+120(FP), R12
	SHLQ    $4, R12

z8saAckA:
	SUBQ $128, R13
	JNZ  z8saA
	MOVQ blkA+128(FP), R13
	SHLQ $4, R13

z8saB:
	CMPQ    SI, BX
	JGE     z8sadone
	VMOVUPD (SI), Z0
	VMULPD  (CX), Z0, Z0
	VMOVUPD Z0, (SI)
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z6, Z6
	VMOVUPD 64(SI), Z0
	VMULPD  64(CX), Z0, Z0
	VMOVUPD Z0, 64(SI)
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z7, Z7
	ADDQ    $128, SI
	SUBQ    $128, R12
	JNZ     z8saBckA
	XCHGQ   CX, R10
	MOVQ    blkC+120(FP), R12
	SHLQ    $4, R12

z8saBckA:
	SUBQ $128, R13
	JNZ  z8saB
	MOVQ blkA+128(FP), R13
	SHLQ $4, R13
	JMP  z8saA

z8sadone:
	VMOVUPD Z4, (R8)
	VMOVUPD Z5, 64(R8)
	VMOVUPD Z6, (R9)
	VMOVUPD Z7, 64(R9)
	VZEROUPPER
	RET

// func spanAccBlocksZ8(span []complex128, aA, aB []float64, blkA int)
TEXT ·spanAccBlocksZ8(SB), NOSPLIT, $0-80
	MOVQ    span_base+0(FP), SI
	MOVQ    span_len+8(FP), BX
	SHLQ    $4, BX
	ADDQ    SI, BX
	MOVQ    aA_base+24(FP), R8
	MOVQ    aB_base+48(FP), R9
	MOVQ    blkA+72(FP), R13
	SHLQ    $4, R13
	MOVQ    R13, R11
	VMOVUPD (R8), Z4
	VMOVUPD 64(R8), Z5
	VMOVUPD (R9), Z6
	VMOVUPD 64(R9), Z7

z8acA:
	CMPQ    SI, BX
	JGE     z8acdone
	VMOVUPD (SI), Z0
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z4, Z4
	VMOVUPD 64(SI), Z0
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z5, Z5
	ADDQ    $128, SI
	SUBQ    $128, R13
	JNZ     z8acA
	MOVQ    R11, R13

z8acB:
	CMPQ    SI, BX
	JGE     z8acdone
	VMOVUPD (SI), Z0
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z6, Z6
	VMOVUPD 64(SI), Z0
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z7, Z7
	ADDQ    $128, SI
	SUBQ    $128, R13
	JNZ     z8acB
	MOVQ    R11, R13
	JMP     z8acA

z8acdone:
	VMOVUPD Z4, (R8)
	VMOVUPD Z5, 64(R8)
	VMOVUPD Z6, (R9)
	VMOVUPD Z7, 64(R9)
	VZEROUPPER
	RET

// func spanCollapseBlocksZ8(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int)
//
// The coefficient stream never swaps, so it loads into registers once;
// the accumulator is a single stream (two registers); only the keep-
// mask pair exchanges base pointers.
TEXT ·spanCollapseBlocksZ8(SB), NOSPLIT, $0-128
	MOVQ    span_base+0(FP), SI
	MOVQ    span_len+8(FP), BX
	SHLQ    $4, BX
	ADDQ    SI, BX
	MOVQ    cc_base+24(FP), CX
	MOVQ    mA_base+48(FP), R10
	MOVQ    mB_base+72(FP), R11
	MOVQ    acc_base+96(FP), R8
	MOVQ    blk+120(FP), R12
	SHLQ    $4, R12
	MOVQ    R12, R9
	VMOVUPD (CX), Z8
	VMOVUPD 64(CX), Z9
	VMOVUPD (R8), Z4
	VMOVUPD 64(R8), Z5

z8cp:
	CMPQ    SI, BX
	JGE     z8cpdone
	VMOVUPD (SI), Z0
	VMULPD  Z8, Z0, Z0
	VANDPD  (R10), Z0, Z0
	VMOVUPD Z0, (SI)
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z4, Z4
	VMOVUPD 64(SI), Z0
	VMULPD  Z9, Z0, Z0
	VANDPD  64(R10), Z0, Z0
	VMOVUPD Z0, 64(SI)
	VMULPD  Z0, Z0, Z1
	VSHUFPD $0x55, Z1, Z1, Z2
	VADDPD  Z2, Z1, Z1
	VADDPD  Z1, Z5, Z5
	ADDQ    $128, SI
	SUBQ    $128, R12
	JNZ     z8cp
	XCHGQ   R10, R11
	MOVQ    R9, R12
	JMP     z8cp

z8cpdone:
	VMOVUPD Z4, (R8)
	VMOVUPD Z5, 64(R8)
	VZEROUPPER
	RET

DATA  altsign<>+0(SB)/8, $0x8000000000000000
DATA  altsign<>+8(SB)/8, $0x0000000000000000
GLOBL altsign<>(SB), RODATA, $16

// func spanApply1RDBlocksAVX512(span []complex128, maskL int, r00, r11, u01re, u01im, u10re, u10im float64)
//
// ZMM body of the real-diagonal pair update, 4 pairs per iteration.
// VADDSUBPD has no EVEX form, so the complex-multiply combine flips
// the even slots' signs with the alternating constant (exact) and
// uses one VADDPD: x − y ≡ x + (−y) in IEEE-754, bit for bit.
TEXT ·spanApply1RDBlocksAVX512(SB), NOSPLIT, $0-80
	MOVQ            span_base+0(FP), SI
	MOVQ            span_len+8(FP), BX
	SHLQ            $4, BX
	ADDQ            SI, BX
	MOVQ            maskL+24(FP), R11
	SHLQ            $4, R11
	VBROADCASTSD    r00+32(FP), Z8
	VBROADCASTSD    r11+40(FP), Z9
	VBROADCASTSD    u01re+48(FP), Z10
	VBROADCASTSD    u01im+56(FP), Z11
	VBROADCASTSD    u10re+64(FP), Z12
	VBROADCASTSD    u10im+72(FP), Z13
	VBROADCASTF64X2 altsign<>(SB), Z14

zrdouter:
	CMPQ SI, BX
	JGE  zrddone
	LEAQ (SI)(R11*1), DI
	XORQ AX, AX

zrdinner:
	VMOVUPD (SI)(AX*1), Z0            // a0
	VMOVUPD (DI)(AX*1), Z1            // a1

	// x = u01·a1
	VSHUFPD $0x55, Z1, Z1, Z2         // [a1im, a1re]
	VMULPD  Z1, Z10, Z3               // [xre·a1re, xre·a1im]
	VMULPD  Z2, Z11, Z4               // [xim·a1im, xim·a1re]
	VXORPD  Z14, Z4, Z4
	VADDPD  Z4, Z3, Z3                // [xre·a1re − xim·a1im, xre·a1im + xim·a1re]

	// y = u10·a0
	VSHUFPD $0x55, Z0, Z0, Z2
	VMULPD  Z0, Z12, Z5
	VMULPD  Z2, Z13, Z4
	VXORPD  Z14, Z4, Z4
	VADDPD  Z4, Z5, Z5

	// lo' = a0·r00 + x
	VMULPD  Z0, Z8, Z6
	VADDPD  Z3, Z6, Z6
	VMOVUPD Z6, (SI)(AX*1)

	// hi' = y + a1·r11
	VMULPD  Z1, Z9, Z7
	VADDPD  Z7, Z5, Z7
	VMOVUPD Z7, (DI)(AX*1)

	ADDQ $64, AX
	CMPQ AX, R11
	JLT  zrdinner
	LEAQ (DI)(R11*1), SI
	JMP  zrdouter

zrddone:
	VZEROUPPER
	RET

// func spanScaleBlocksZ8(span []complex128, cA, cB []float64, blkC int)
//
// L=8 ZMM specialization of the scaling pass: each coefficient array
// is exactly two ZMM registers, preloaded once; the coefficient-pair
// swap is two phase-specific loop bodies (A-rows scale by Z20/Z21,
// B-rows by Z22/Z23) with no rolling cursor and no data movement at
// swaps. One 128-byte row per iteration; every swap period is a row
// multiple.
TEXT ·spanScaleBlocksZ8(SB), NOSPLIT, $0-80
	MOVQ span_base+0(FP), SI
	MOVQ span_len+8(FP), BX
	SHLQ $4, BX
	ADDQ SI, BX
	MOVQ blkC+72(FP), R11
	SHLQ $4, R11
	MOVQ R11, R12
	MOVQ cA_base+24(FP), CX
	VMOVUPD (CX), Z20
	VMOVUPD 64(CX), Z21
	MOVQ cB_base+48(FP), CX
	VMOVUPD (CX), Z22
	VMOVUPD 64(CX), Z23

z8scA:
	CMPQ SI, BX
	JGE  z8scdone
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMULPD  Z0, Z20, Z0
	VMULPD  Z1, Z21, Z1
	VMOVUPD Z0, (SI)
	VMOVUPD Z1, 64(SI)
	ADDQ    $128, SI
	SUBQ    $128, R12
	JNZ     z8scA
	MOVQ    R11, R12

z8scB:
	CMPQ SI, BX
	JGE  z8scdone
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMULPD  Z0, Z22, Z0
	VMULPD  Z1, Z23, Z1
	VMOVUPD Z0, (SI)
	VMOVUPD Z1, 64(SI)
	ADDQ    $128, SI
	SUBQ    $128, R12
	JNZ     z8scB
	MOVQ    R11, R12
	JMP     z8scA

z8scdone:
	VZEROUPPER
	RET
