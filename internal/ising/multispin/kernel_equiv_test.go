package multispin

import (
	"fmt"
	"math/rand"
	"testing"

	"tpuising/internal/rng"
)

// TestUpdateRowGoldenEquivalence is the golden bit-equivalence property test
// of the kernel variants: for random (rows, cols, seed, parity, temperature,
// step, wordOff) tuples, the optimized UpdateRowScratch path (tiled +
// batched Philox; the AVX-512 or AVX2 kernel where the CPU has it) must
// produce exactly the spins of UpdateRowRef, the retained naive reference.
// It runs on the host's dispatch, which rng.HasAVX512 and rng.HasAVX2 name;
// CI also runs it under -race and under GOARCH=386, where the portable loop
// runs.
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

// TestUpdateBlockMatchesReference pins the block entry the engines call to
// UpdateRowRef replayed row by row over the same block. It covers one-word
// rows (the row loop is the word loop), rows that share one draw (2, 3 and
// 21 words), rows of a whole draw and wider ones that draw their own tiles;
// row counts that leave the last draw run short; a nonzero global row and
// word; and both the torus wrap of a single core (nil halo columns) and
// random received halo columns.
func TestUpdateBlockMatchesReference(t *testing.T) {
	prng := rand.New(rand.NewSource(20261020))
	var sc Scratch // shared across calls, as an engine worker's is
	for _, W := range []int{1, 2, 3, 21, 64, 65, 131} {
		perRun := max(tileWords/W, 1)
		for _, rows := range []int{1, perRun + 1, 2*perRun + max(perRun/2, 1)} {
			for _, halo := range []bool{false, true} {
				k := NewKernel(0.5+4*prng.Float64(), prng.Uint64(), false)
				b := &Block{
					Words: randomWords(prng, rows*W), Rows: rows, RowWords: W,
					North: randomWords(prng, W), South: randomWords(prng, W),
					Row: prng.Intn(1 << 20), Col: prng.Intn(1<<20) * WordBits,
				}
				if halo {
					b.West, b.East = randomWords(prng, (rows+63)/64), randomWords(prng, (rows+63)/64)
				}
				parity, step := prng.Intn(2), prng.Uint64()>>uint(prng.Intn(40))
				ref := append([]uint64(nil), b.Words...)
				for r := 0; r < rows; r++ {
					row, north, south := ref[r*W:(r+1)*W], b.North, b.South
					if r > 0 {
						north = ref[(r-1)*W : r*W]
					}
					if r+1 < rows {
						south = ref[(r+1)*W : (r+2)*W]
					}
					westWrap, eastWrap := row[W-1], row[0]
					if halo {
						westWrap = (b.West[r/64] >> (r % 64) & 1) << 63
						eastWrap = b.East[r/64] >> (r % 64) & 1
					}
					k.UpdateRowRef(row, north, south, westWrap, eastWrap, b.Row+r, b.Col/WordBits, parity, step)
				}
				k.UpdateBlock(b, parity, step, &sc)
				for i := range ref {
					if b.Words[i] != ref[i] {
						t.Fatalf("W=%d rows=%d halo=%v row=%d col=%d parity=%d step=%d: word %d (row %d) = %#x, reference %#x",
							W, rows, halo, b.Row, b.Col, parity, step, i, i/W, b.Words[i], ref[i])
					}
				}
			}
		}
	}
}

// randomWords returns n random words.
func randomWords(prng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = prng.Uint64()
	}
	return w
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
// UpdateRowRef and UpdateRowScratch and fails unless the two agree word for
// word.
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

	rowSc := append([]uint64(nil), rowRef...)

	k.UpdateRowRef(rowRef, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step)
	var sc Scratch
	k.UpdateRowScratch(rowSc, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step, &sc)

	for i := 0; i < W; i++ {
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

// BenchmarkUpdateBlock times one colour update of a 64-row block through
// the engines' entry, with the torus wrap of a single core: 64 one-word rows
// (a 64² lattice's band, one draw for the whole block) and 64 rows of 32
// words (two rows per draw).
func BenchmarkUpdateBlock(b *testing.B) {
	for _, W := range []int{1, 32} {
		b.Run(fmt.Sprintf("64x%d", W), func(b *testing.B) {
			const rows = 64
			k := NewKernel(2.4, 7, false)
			words := randomWords(rand.New(rand.NewSource(1)), rows*W)
			blk := &Block{Words: words, Rows: rows, RowWords: W, North: words[(rows-1)*W:], South: words[:W]}
			var sc Scratch
			b.SetBytes(rows * int64(W) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.UpdateBlock(blk, i&1, uint64(i), &sc)
			}
		})
	}
}
