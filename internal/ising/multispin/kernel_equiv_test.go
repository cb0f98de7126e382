package multispin

import (
	"fmt"
	"math/rand"
	"testing"

	"tpuising/internal/rng"
)

// TestUpdateRowGoldenEquivalence is the golden bit-equivalence property test
// of the kernel variants: for random (rows, cols, seed, parity, temperature,
// step, wordOff) tuples, the optimized UpdateRow /
// UpdateRowScratch paths (tiled + batched Philox; the AVX-512 or AVX2 kernel
// where the CPU has it) must produce exactly the spins of UpdateRowRef, the
// retained naive reference. It runs on the host's dispatch, which
// rng.HasAVX512 and rng.HasAVX2 name; CI also
// runs it under -race and under GOARCH=386, where the portable loop runs.
func TestUpdateRowGoldenEquivalence(t *testing.T) {
	t.Logf("avx2 kernels active: %v, avx512 accept kernels active: %v", rng.HasAVX2(), rng.HasAVX512())
	prng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 200; trial++ {
		W := 1 + prng.Intn(tileWords*2+3) // 1..131 words: tails, tile boundaries, multi-tile
		parity := prng.Intn(2)
		globalRow := prng.Intn(1 << 20)
		wordOff := prng.Intn(1 << 20)
		step := prng.Uint64() >> uint(prng.Intn(40))
		seed := prng.Uint64()
		temp := 0.5 + 4*prng.Float64()
		k := NewKernel(temp, seed, false)
		checkRowMatchesRef(t, prng, k, fmt.Sprintf("trial %d", trial), W, parity, globalRow, wordOff, step)
	}

	// Threshold edges: T8 = 0 below T≈0.36 and T4 = 1<<32 at very large T
	// are both reachable from a job spec, and the fused accept compare must
	// handle every pair of edge values exactly as the reference does.
	edges := []uint64{0, 1, 1 << 31, 1<<32 - 1, 1 << 32}
	for _, t4 := range edges {
		for _, t8 := range edges {
			W := 1 + prng.Intn(tileWords*2+3)
			k := NewKernel(2.0, prng.Uint64(), false)
			k.SetThresholds(Thresholds{T4: t4, T8: t8})
			checkRowMatchesRef(t, prng, k, fmt.Sprintf("edge T4=%#x T8=%#x", t4, t8),
				W, prng.Intn(2), prng.Intn(1<<20), prng.Intn(1<<20), prng.Uint64())
		}
	}
}

// TestFlipsTruthTable checks Flips exhaustively. Every bit of its result is
// the same function of the six input bits at that position, so one call
// whose bit k carries input pattern k (k = 0..63: the 16 patterns of the
// four disagreement bits times the four (a4, a8) pairs) covers the whole
// truth table. Each bit must equal the Metropolis rule on the disagreement
// count and the three-class form Flips replaced: the count bit-sliced into
// three bits, then ge2 | one&a4 | zero&a8.
func TestFlipsTruthTable(t *testing.T) {
	var in [6]uint64 // d1, d2, d3, d4, a4, a8
	for k := 0; k < 64; k++ {
		for i := range in {
			in[i] |= uint64(k>>i&1) << k
		}
	}
	d1, d2, d3, d4, a4, a8 := in[0], in[1], in[2], in[3], in[4], in[5]

	h0, c0 := d1^d2, d1&d2
	h1, c1 := d3^d4, d3&d4
	low, ca := h0^h1, h0&h1
	mid := c0 ^ c1 ^ ca
	hi := c0&c1 | ca&(c0^c1)
	ge2, one, zero := mid|hi, low&^mid&^hi, ^(low | mid | hi)
	threeClass := ge2 | one&a4 | zero&a8

	got := Flips(d1, d2, d3, d4, a4, a8)
	for k := 0; k < 64; k++ {
		count := k&1 + k>>1&1 + k>>2&1 + k>>3&1
		acc4, acc8 := k>>4&1 == 1, k>>5&1 == 1
		want := count >= 2 || count == 1 && acc4 || count == 0 && acc8
		if g := got>>k&1 == 1; g != want {
			t.Errorf("pattern %06b (count %d, a4 %v, a8 %v): Flips = %v, want %v", k, count, acc4, acc8, g, want)
		}
		if g := threeClass>>k&1 == 1; g != want {
			t.Errorf("pattern %06b: the three-class form = %v, want %v", k, g, want)
		}
	}
}

// checkRowMatchesRef updates one random W-word row with k through
// UpdateRowRef, UpdateRow and UpdateRowScratch and fails unless all three
// agree word for word.
func checkRowMatchesRef(t *testing.T, prng *rand.Rand, k Kernel, label string, W, parity, globalRow, wordOff int, step uint64) {
	t.Helper()
	rowRef := make([]uint64, W)
	north := make([]uint64, W)
	south := make([]uint64, W)
	for i := 0; i < W; i++ {
		rowRef[i] = prng.Uint64()
		north[i] = prng.Uint64()
		south[i] = prng.Uint64()
	}
	westWrap, eastWrap := prng.Uint64(), prng.Uint64()

	rowOpt := append([]uint64(nil), rowRef...)
	rowSc := append([]uint64(nil), rowRef...)

	k.UpdateRowRef(rowRef, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step)
	k.UpdateRow(rowOpt, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step)
	var sc Scratch
	k.UpdateRowScratch(rowSc, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step, &sc)

	for i := 0; i < W; i++ {
		if rowOpt[i] != rowRef[i] {
			t.Fatalf("%s (W=%d parity=%d row=%d wordOff=%d step=%d): UpdateRow word %d = %#x, reference %#x",
				label, W, parity, globalRow, wordOff, step, i, rowOpt[i], rowRef[i])
		}
		if rowSc[i] != rowRef[i] {
			t.Fatalf("%s (W=%d parity=%d row=%d wordOff=%d step=%d): UpdateRowScratch word %d = %#x, reference %#x",
				label, W, parity, globalRow, wordOff, step, i, rowSc[i], rowRef[i])
		}
	}
}

// BenchmarkUpdateRow benchmarks the optimized per-site row kernel against the
// retained reference on a 4096-column row (64 words), the before/after pair
// of the PR-10 vectorization. Flip throughput: 32 active sites per word.
func BenchmarkUpdateRow(b *testing.B) {
	benchRow(b, false)
}

func BenchmarkUpdateRowRef(b *testing.B) {
	benchRow(b, true)
}

func benchRow(b *testing.B, ref bool) {
	const W = 64
	k := NewKernel(2.4, 7, false)
	row := make([]uint64, W)
	north := make([]uint64, W)
	south := make([]uint64, W)
	for i := range row {
		row[i] = 0xAAAA5555AAAA5555 * uint64(i+1)
		north[i] = ^row[i]
		south[i] = row[i] >> 3
	}
	var sc Scratch
	b.SetBytes(W * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ref {
			k.UpdateRowRef(row, north, south, row[W-1], row[0], 5, 0, 0, uint64(i))
		} else {
			k.UpdateRowScratch(row, north, south, row[W-1], row[0], 5, 0, 0, uint64(i), &sc)
		}
	}
}
