package qphys

import (
	"fmt"
	"testing"
)

// BenchmarkSpanAnti times one anti-jump walk of one lane's column —
// the per-jump cost of the lockstep channel step — at register sizes
// 3, 5 and 9 and lane counts 1, 3 and 8, with the host's span-kernel
// tier ("simd") and with the pure-Go body ("go"). The operator has
// unit-modulus entries, so repeated walks neither grow nor shrink the
// amplitudes.
func BenchmarkSpanAnti(b *testing.B) {
	for _, nq := range []int{3, 5, 9} {
		for _, L := range []int{1, 3, 8} {
			span := make([]complex128, (1<<nq)*L)
			for i := range span {
				span[i] = complex(float64(i%7)-3, float64(i%5)-2)
			}
			q := nq / 2
			mL := (1 << (nq - 1 - q)) * L
			lane := L - 1
			c01, c10 := complex(0.6, 0.8), complex(0.8, -0.6)
			for _, mode := range []simdMode{simdFull, simdOff} {
				name := "simd"
				if mode == simdOff {
					name = "go"
				}
				b.Run(fmt.Sprintf("nq%d/L%d/%s", nq, L, name), func(b *testing.B) {
					withSIMD(mode, func() {
						for i := 0; i < b.N; i++ {
							spanAntiLane(span, lane, L, mL, c01, c10)
						}
					})
				})
			}
		}
	}
}
