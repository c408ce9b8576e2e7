package prng

import (
	"math"
	"math/rand"
	"testing"
)

// pinnedSeeds covers the edges of Seed's reduction modulo 2^31-1: zero
// and its stand-in 89482311, the multiples of 2^31-1 (which reduce to
// zero), negative seeds and both int64 extremes.
var pinnedSeeds = []int64{
	0, 1, -1, 89482311,
	int32max, 2 * int32max, -int32max, int32max << 32,
	math.MinInt64, math.MaxInt64,
}

// drawBoth takes one draw from src (op selects the method: directly on
// the concrete type, or through rand.New(src) as the cold consumers draw)
// and the same draw from the math/rand oracle, returning both as bits.
func drawBoth(op byte, arg int, src *Source, wrapped, ref *rand.Rand) (got, want uint64) {
	n := arg%1000 + 1
	switch op % 6 {
	case 0:
		return math.Float64bits(src.Float64()), math.Float64bits(ref.Float64())
	case 1:
		return uint64(src.Int63()), uint64(ref.Int63())
	case 2:
		return src.Uint64(), ref.Uint64()
	case 3:
		return math.Float64bits(wrapped.NormFloat64()), math.Float64bits(ref.NormFloat64())
	case 4:
		return uint64(wrapped.Intn(n)), uint64(ref.Intn(n))
	default:
		return math.Float64bits(wrapped.Float64()), math.Float64bits(ref.Float64())
	}
}

// TestSourceMatchesMathRand pins the stream: for every pinned seed the
// concrete Source, and rand.New over it, yield exactly math/rand's
// values, across interleaved methods and a mid-stream reseed (the path
// core.Machine.ResetState takes through rand.Rand.Seed).
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range pinnedSeeds {
		src := New(seed)
		wrapped := rand.New(src)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			if i == 1500 {
				wrapped.Seed(seed ^ 0x5deece66d)
				ref.Seed(seed ^ 0x5deece66d)
			}
			if i == 3000 {
				src.Seed(seed + 7)
				ref.Seed(seed + 7)
			}
			op := byte(i*7 + i/6)
			if got, want := drawBoth(op, i, src, wrapped, ref); got != want {
				t.Fatalf("seed %d, draw %d (op %d): got %#x, want %#x", seed, i, op%6, got, want)
			}
		}
	}
}

// TestFloat64RedrawsOne pins Float64's resample: an Int63 close enough
// to 2^63 that the division rounds to 1.0 is discarded and the next
// draw returned, as rand.Rand.Float64 does over the same stream.
func TestFloat64RedrawsOne(t *testing.T) {
	for _, x := range []uint64{math.MaxInt64, math.MaxUint64, 1<<63 - 512} {
		src, twin := New(3), New(3)
		src.SetNext(x)
		twin.SetNext(x)
		got, want := src.Float64(), rand.New(twin).Float64()
		if got != want || got >= 1 {
			t.Fatalf("next %#x: Float64 %v, math/rand %v", x, got, want)
		}
	}
	// The largest Int63 whose quotient stays below 1 is returned as is.
	src := New(3)
	src.SetNext(math.MaxInt64 - 1023)
	if got := src.Float64(); got != 1-0x1p-53 {
		t.Fatalf("Float64 = %v, want 1-2^-53", got)
	}
}

// TestSetNextContinuesTheStream checks the test lever itself: the forced
// value comes out next, and the generator keeps running.
func TestSetNextContinuesTheStream(t *testing.T) {
	src := New(11)
	src.Uint64()
	src.SetNext(0xdeadbeef)
	if got := src.Uint64(); got != 0xdeadbeef {
		t.Fatalf("Uint64 after SetNext = %#x", got)
	}
	if a, b := src.Uint64(), src.Uint64(); a == b {
		t.Fatalf("stream stalled after SetNext: %#x twice", a)
	}
}

// schrageSeedrand is math/rand's seeding step, Schrage's method in
// 32-bit arithmetic: the reference seedrand's 64-bit form must match.
func schrageSeedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedrandMatchesSchrage pins seedrand to the Schrage form on its
// domain [1, 2^31-2]: at the edges of both forms (1, 2, the Schrage
// quotient boundary Q-1 and Q, the top two values) and on a strided
// sweep of the rest.
func TestSeedrandMatchesSchrage(t *testing.T) {
	check := func(x int32) {
		if got, want := seedrand(x), schrageSeedrand(x); got != want {
			t.Fatalf("seedrand(%d) = %d, Schrage form %d", x, got, want)
		}
	}
	for _, x := range []int32{1, 2, 44487, 44488, int32max - 2, int32max - 1} {
		check(x)
	}
	for x := int64(1); x < int32max; x += 9973 {
		check(int32(x))
	}
}

// BenchmarkSourceSeed times one Seed: the seeding steps and the fill of
// the 607-word register, the cost every ResetState pays.
func BenchmarkSourceSeed(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

// FuzzSource drives the same comparison as TestSourceMatchesMathRand
// from fuzzer bytes: the seed, then one byte per draw choosing the
// method, where a byte with its top bit set reseeds both generators
// first (alternating between rand.Rand.Seed and Source.Seed).
func FuzzSource(f *testing.F) {
	for _, seed := range pinnedSeeds {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 0x80, 5, 4, 3, 2, 1, 0})
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		src := New(seed)
		wrapped := rand.New(src)
		ref := rand.New(rand.NewSource(seed))
		for i, op := range ops {
			if op&0x80 != 0 {
				s := seed ^ int64(i)*0x5851f42d4c957f2d
				if op&0x40 != 0 {
					src.Seed(s)
				} else {
					wrapped.Seed(s)
				}
				ref.Seed(s)
			}
			if got, want := drawBoth(op, int(op)*31+i, src, wrapped, ref); got != want {
				t.Fatalf("seed %d, draw %d (op %d): got %#x, want %#x", seed, i, op%6, got, want)
			}
		}
	})
}
