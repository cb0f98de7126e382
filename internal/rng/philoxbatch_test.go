package rng

import (
	"testing"
)

// useKernels restricts the batch entry points for the rest of t to the
// vector kernels that avx2 and avx512 allow and the host supports, and
// restores the CPUID-derived dispatch on cleanup. Tests that use it must not
// run in parallel with other tests of this package.
func useKernels(t testing.TB, avx2, avx512 bool) {
	saved2, saved512 := useAVX2, useAVX512
	useAVX2, useAVX512 = saved2 && avx2, saved512 && avx512
	t.Cleanup(func() { useAVX2, useAVX512 = saved2, saved512 })
}

// forEachDispatch runs body on every dispatch path: the portable loop
// (vector kernels off), the AVX2 kernels (AVX-512 off; skipped without
// AVX2) and the host's dispatch (the AVX-512 accept kernels where HasAVX512
// is true), so one test run checks each path against the scalar reference
// and an AVX-512 host still tests the AVX2 kernels.
func forEachDispatch(t *testing.T, body func(t *testing.T)) {
	t.Run("portable", func(t *testing.T) {
		useKernels(t, false, false)
		body(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if !HasAVX2() {
			t.Skip("CPU has no AVX2: only the portable path exists")
		}
		useKernels(t, true, false)
		body(t)
	})
	t.Run("host", func(t *testing.T) {
		t.Logf("avx2 kernels active: %v, avx512 accept kernels active: %v", HasAVX2(), HasAVX512())
		body(t)
	})
}

// TestBlockRowMatchesBlock: BlockRow is Block evaluated at consecutive
// counters — exactly, for every length that exercises the vector body (two
// interleaved 8-block states and a single-state tail), the 4-way portable
// body and the scalar tail, including counter wraparound at a 16-block pair
// boundary, between the two states and inside either one.
func TestBlockRowMatchesBlock(t *testing.T) {
	forEachDispatch(t, testBlockRowMatchesBlock)
}

func testBlockRowMatchesBlock(t *testing.T) {
	key := Key{0xDEADBEEF, 0x1BD11BDA}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 24, 31, 32, 40, 100, 256} {
		for _, ctr := range []Counter{
			{0, 0, 0, 0},
			{1, 2, 3, 4},
			{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFF0}, // c3 wraps mid-run
			{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFF4}, // ... inside the second state
			{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFF8}, // ... between the states
			{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFFC}, // ... inside the first state
		} {
			dst := make([]uint32, 4*n)
			BlockRow(dst, ctr, key)
			for i := 0; i < n; i++ {
				want := Block(Counter{ctr[0], ctr[1], ctr[2], ctr[3] + uint32(i)}, key)
				for k := 0; k < 4; k++ {
					if dst[4*i+k] != want[k] {
						t.Fatalf("BlockRow n=%d ctr=%v block %d component %d: got %#x want %#x",
							n, ctr, i, k, dst[4*i+k], want[k])
					}
				}
			}
		}
	}
}

// TestBlockRowGenericMatchesBlock pins the portable body on its own, with no
// dispatch in front of it.
func TestBlockRowGenericMatchesBlock(t *testing.T) {
	key := Key{11, 22}
	ctr := Counter{7, 8, 9, 0xFFFFFFFE}
	const n = 37
	dst := make([]uint32, 4*n)
	blockRowGeneric(dst, ctr, key, 0, n)
	for i := 0; i < n; i++ {
		want := Block(Counter{ctr[0], ctr[1], ctr[2], ctr[3] + uint32(i)}, key)
		for k := 0; k < 4; k++ {
			if dst[4*i+k] != want[k] {
				t.Fatalf("blockRowGeneric block %d component %d: got %#x want %#x", i, k, dst[4*i+k], want[k])
			}
		}
	}
}

// TestBlockLanesMatchesBlock: BlockLanes is Block evaluated under per-lane
// keys — exactly, for every lane count 0..64 (vector pairs, a single-state
// vector tail, the portable tail and their combinations).
func TestBlockLanesMatchesBlock(t *testing.T) {
	forEachDispatch(t, testBlockLanesMatchesBlock)
}

func testBlockLanesMatchesBlock(t *testing.T) {
	ctr := Counter{101, 102, 103, 104}
	for lanes := 0; lanes <= 64; lanes++ {
		k0s := make([]uint32, lanes)
		k1s := make([]uint32, lanes)
		for l := range k0s {
			k0s[l] = uint32(l)*0x9E3779B9 + 1
			k1s[l] = uint32(l)*0xBB67AE85 + 2
		}
		dst := make([]uint32, 4*lanes)
		BlockLanes(dst, ctr, k0s, k1s)
		for l := 0; l < lanes; l++ {
			want := Block(ctr, Key{k0s[l], k1s[l]})
			for k := 0; k < 4; k++ {
				if dst[4*l+k] != want[k] {
					t.Fatalf("BlockLanes lanes=%d lane %d component %d: got %#x want %#x",
						lanes, l, k, dst[4*l+k], want[k])
				}
			}
		}
	}
}

// TestBlockLanesGenericMatchesBlock pins the portable body on its own.
func TestBlockLanesGenericMatchesBlock(t *testing.T) {
	ctr := Counter{1, 0, 0xFFFFFFFF, 2}
	const lanes = 13
	k0s := make([]uint32, lanes)
	k1s := make([]uint32, lanes)
	for l := range k0s {
		k0s[l] = uint32(3*l + 1)
		k1s[l] = uint32(5*l + 2)
	}
	dst := make([]uint32, 4*lanes)
	blockLanesGeneric(dst, ctr, k0s, k1s, 0, lanes)
	for l := 0; l < lanes; l++ {
		want := Block(ctr, Key{k0s[l], k1s[l]})
		for k := 0; k < 4; k++ {
			if dst[4*l+k] != want[k] {
				t.Fatalf("blockLanesGeneric lane %d component %d: got %#x want %#x", l, k, dst[4*l+k], want[k])
			}
		}
	}
}

// BenchmarkBlockRow measures bulk generation throughput (bytes/s of random
// output). On an AVX2 machine this is the vector kernel; otherwise the 4-way
// portable loop.
func BenchmarkBlockRow(b *testing.B) {
	dst := make([]uint32, 1024) // 256 blocks
	b.SetBytes(int64(len(dst) * 4))
	for i := 0; i < b.N; i++ {
		BlockRow(dst, Counter{0, 0, uint32(i), 0}, Key{1, 2})
	}
}

func BenchmarkBlockLanes(b *testing.B) {
	const lanes = 64
	k0s := make([]uint32, lanes)
	k1s := make([]uint32, lanes)
	for l := range k0s {
		k0s[l] = uint32(l)
		k1s[l] = uint32(l * 7)
	}
	dst := make([]uint32, 4*lanes)
	b.SetBytes(int64(len(dst) * 4))
	for i := 0; i < b.N; i++ {
		BlockLanes(dst, Counter{0, 0, uint32(i), 0}, k0s, k1s)
	}
}

// BenchmarkAcceptRow times the fused multispin draw: 32 words (256 blocks)
// of accept masks per call, the same Philox work as BenchmarkBlockRow.
func BenchmarkAcceptRow(b *testing.B) { benchmarkAcceptRows(b, 32, 1, 1) }

// BenchmarkAcceptRow1 times a one-word row on its own, which runs only the
// vector kernel's eight-block tail.
func BenchmarkAcceptRow1(b *testing.B) { benchmarkAcceptRows(b, 1, 1, 1) }

// BenchmarkAcceptRows64x1 and BenchmarkAcceptRows1x64 draw the same 64
// words: one colour of a 64-column, 64-row lattice as 64 one-word calls
// (one per row) and as one 64-row run. The gap is what drawing per run
// saves. Each runs on the host's dispatch and, on an AVX-512 host, with
// AVX-512 off.
func BenchmarkAcceptRows64x1(b *testing.B) { benchmarkAcceptRowsTiers(b, 1, 1, 64) }
func BenchmarkAcceptRows1x64(b *testing.B) { benchmarkAcceptRowsTiers(b, 1, 64, 1) }

func benchmarkAcceptRowsTiers(b *testing.B, rowWords, rows, calls int) {
	b.Run("host", func(b *testing.B) { benchmarkAcceptRows(b, rowWords, rows, calls) })
	if HasAVX512() {
		b.Run("avx2", func(b *testing.B) {
			useKernels(b, true, false)
			benchmarkAcceptRows(b, rowWords, rows, calls)
		})
	}
}

// benchmarkAcceptRows times calls AcceptRows calls per op, each a run of
// rows rows of rowWords words.
func benchmarkAcceptRows(b *testing.B, rowWords, rows, calls int) {
	a4, a8 := make([]uint64, rowWords*rows), make([]uint64, rowWords*rows)
	for i := 0; i < b.N; i++ {
		for c := 0; c < calls; c++ {
			AcceptRows(a4, a8, rowWords, Counter{0, 0, uint32(c), uint32(i)}, Key{1, 2}, 1<<31, 1<<29)
		}
	}
}

// BenchmarkAcceptLanes times the fused ensemble draw: one four-site group
// of 64 lanes per call, the same Philox work as BenchmarkBlockLanes.
func BenchmarkAcceptLanes(b *testing.B) { benchmarkAcceptLanes(b, 64) }

// BenchmarkAcceptLanes8 times the eight-lane group of a small batch, which
// runs only the vector kernel's eight-lane tail.
func BenchmarkAcceptLanes8(b *testing.B) { benchmarkAcceptLanes(b, 8) }

func benchmarkAcceptLanes(b *testing.B, lanes int) {
	k0s, k1s := make([]uint32, lanes), make([]uint32, lanes)
	t4s, t8s := make([]uint64, lanes), make([]uint64, lanes)
	for l := range k0s {
		k0s[l], k1s[l] = uint32(l), uint32(l*7)
		t4s[l], t8s[l] = 1<<31, 1<<29
	}
	var a4, a8 [4]uint64
	for i := 0; i < b.N; i++ {
		AcceptLanes(&a4, &a8, Counter{0, 0, uint32(i), 0}, k0s, k1s, t4s, t8s)
	}
}

// acceptEdges are the threshold values the accept kernels must get exactly
// right: nothing, the smallest non-empty set, the sign boundary of the
// vector compare, everything but the largest draw, everything, and a
// threshold whose high word is not one.
var acceptEdges = []uint64{0, 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<33 + 5}

// TestAcceptRowMatchesBlock: AcceptRows is Block at the (row, column)
// counters of its run followed by u < t, with ordinal j's bit at 2j and
// every odd bit zero, for the edge thresholds, for thresholds equal to a
// drawn value and one above it (the compare's exact boundary), and for two
// kinds of run. One-row runs take every length that ends the AVX2 loop (two
// one-word states, then one) or the AVX-512 loop (two two-word states, one
// two-word state, then a one-word state) differently, across a ctr[3] wrap
// at each state boundary and inside the states of either loop. Runs of
// several rows take row widths of 1-5, 32, 33 and 64 words and run lengths
// that are not a multiple of a state's words, so a state's two words sit in
// two rows, with ctr[3] wrapping inside a row and ctr[2] wrapping between
// rows, neither carrying. Both kinds place a block of edgeDraws in each
// state shape of the AVX-512 loop.
func TestAcceptRowMatchesBlock(t *testing.T) {
	forEachDispatch(t, testAcceptRowMatchesBlock)
}

func testAcceptRowMatchesBlock(t *testing.T) {
	key := Key{0xDEADBEEF, 0x1BD11BDA}
	ctrs := []Counter{
		{0, 0, 0, 0},
		{1, 2, 3, 4},
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFE0}, // c3 wraps after four words
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFF4}, // ... inside the second word
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFF8}, // ... between the first two words
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFFC}, // ... inside the first word
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFF0}, // ... after two words (between 16-block states)
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFEC}, // ... inside the third word
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFE8}, // ... between the third and fourth words
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFD4}, // ... inside the sixth word
		{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFCC}, // ... inside the seventh word
		{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFE, 0xFFFFFFF4}, // c2 wraps after two rows
		{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFF8}, // ... after the first row
	}
	type run struct{ rowWords, rows int }
	var runs []run
	for _, words := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		runs = append(runs, run{words, 1})
	}
	for _, rowWords := range []int{1, 2, 3, 4, 5, 32, 33, 64} {
		for _, rows := range []int{2, 3, 7} {
			runs = append(runs, run{rowWords, rows})
		}
	}
	runs = append(runs, run{1, 64}, run{3, 21})
	edge := edgeCounter(t, key)
	for _, r := range runs {
		n := r.rowWords * r.rows
		// The edge draws' block at block 5 of flat word 0, 2, 4 and 6 of
		// the run (or its last word): in a seven-word AVX-512 run that is
		// state A and state B of the pair, the lone sixteen-block state
		// and the eight-block tail.
		layoutCtrs := ctrs
		for _, k := range []int{0, 2, 4, 6} {
			k = min(k, n-1)
			i, w := k/r.rowWords, k%r.rowWords
			layoutCtrs = append(layoutCtrs[:len(layoutCtrs):len(layoutCtrs)],
				Counter{edge[0], edge[1], edge[2] - uint32(i), edge[3] - uint32(8*w+5)})
		}
		for _, ctr := range layoutCtrs {
			// draws[k][j] is random j of flat word k.
			draws := make([][32]uint64, n)
			for k := range draws {
				i, w := k/r.rowWords, k%r.rowWords
				for b := 0; b < 8; b++ {
					blk := Block(Counter{ctr[0], ctr[1], ctr[2] + uint32(i), ctr[3] + uint32(8*w+b)}, key)
					for c, u := range blk {
						draws[k][4*b+c] = uint64(u)
					}
				}
			}
			ths := append(append([]uint64(nil), acceptEdges...), draws[0][22], draws[0][22]+1)
			a4 := make([]uint64, n)
			a8 := make([]uint64, n)
			for _, t4 := range ths {
				for _, t8 := range ths {
					AcceptRows(a4, a8, r.rowWords, ctr, key, t4, t8)
					for k := range draws {
						const oddBits = 0xAAAAAAAAAAAAAAAA
						if (a4[k]|a8[k])&oddBits != 0 {
							t.Fatalf("AcceptRows ctr=%v rowWords=%d rows=%d t4=%#x t8=%#x word %d: odd bits set in (%#x, %#x)",
								ctr, r.rowWords, r.rows, t4, t8, k, a4[k], a8[k])
						}
						var want4, want8 uint64
						for j, u := range draws[k] {
							if u < t4 {
								want4 |= 1 << (2 * j)
							}
							if u < t8 {
								want8 |= 1 << (2 * j)
							}
						}
						if a4[k] != want4 || a8[k] != want8 {
							t.Fatalf("AcceptRows ctr=%v rowWords=%d rows=%d t4=%#x t8=%#x word %d: got (%#x, %#x) want (%#x, %#x)",
								ctr, r.rowWords, r.rows, t4, t8, k, a4[k], a8[k], want4, want8)
						}
					}
				}
			}
		}
	}
}

// TestAcceptRowsRejectsBadRuns: a run must be whole rows of a positive
// width, with as many a8 words as a4 words.
func TestAcceptRowsRejectsBadRuns(t *testing.T) {
	for _, c := range []struct {
		n4, n8, rowWords int
	}{{4, 4, 3}, {4, 4, 0}, {4, 3, 1}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AcceptRows(len %d, len %d, rowWords %d) did not panic", c.n4, c.n8, c.rowWords)
				}
			}()
			AcceptRows(make([]uint64, c.n4), make([]uint64, c.n8), c.rowWords, Counter{}, Key{}, 1, 1)
		}()
	}
}

// TestAcceptLanesMatchesBlock: AcceptLanes is Block under per-lane keys
// followed by u < t with per-lane thresholds, for every lane count 1..64
// (vector body, portable tail and both together), with each lane's pair
// drawn from the edge thresholds and from its own draws, and with a block of
// edgeDraws in a lane of each AVX-512 state.
func TestAcceptLanesMatchesBlock(t *testing.T) {
	forEachDispatch(t, testAcceptLanesMatchesBlock)
}

func testAcceptLanesMatchesBlock(t *testing.T) {
	ctrs := []Counter{{101, 102, 103, 104}, {0, 0xFFFFFFFF, 7, 0xFFFFFFFF}}
	// The edge draws' block in lane 5, 21, 37 and 61: across the lane
	// counts, a lane of each AVX-512 state shape (pair state A and B, the
	// lone sixteen-lane state, the eight-lane tail).
	for _, p := range []int{5, 21, 37, 61} {
		ctrs = append(ctrs, edgeCounter(t, laneKey(p)))
	}
	for _, ctr := range ctrs {
		for lanes := 1; lanes <= 64; lanes++ {
			k0s := make([]uint32, lanes)
			k1s := make([]uint32, lanes)
			blks := make([][4]uint32, lanes)
			for l := range k0s {
				k := laneKey(l)
				k0s[l], k1s[l] = k[0], k[1]
				blks[l] = Block(ctr, k)
			}
			// Shift the lane-to-threshold assignment so every lane meets
			// every case, including a threshold one above its own draw.
			for shift := 0; shift < len(acceptEdges)+2; shift++ {
				t4s := make([]uint64, lanes)
				t8s := make([]uint64, lanes)
				for l := range t4s {
					t4s[l] = laneThreshold(blks[l], l+shift)
					t8s[l] = laneThreshold(blks[l], 3*l+shift+1)
				}
				var a4, a8 [4]uint64
				AcceptLanes(&a4, &a8, ctr, k0s, k1s, t4s, t8s)
				var want4, want8 [4]uint64
				for l, b := range blks {
					for c, u := range b {
						if uint64(u) < t4s[l] {
							want4[c] |= 1 << l
						}
						if uint64(u) < t8s[l] {
							want8[c] |= 1 << l
						}
					}
				}
				if a4 != want4 || a8 != want8 {
					t.Fatalf("AcceptLanes ctr=%v lanes=%d shift=%d: got (%#x, %#x) want (%#x, %#x)",
						ctr, lanes, shift, a4, a8, want4, want8)
				}
			}
		}
	}
}

// laneThreshold picks case i of a lane: one of the edge thresholds, the
// lane's component-1 draw itself, or one above it.
func laneThreshold(b [4]uint32, i int) uint64 {
	switch i %= len(acceptEdges) + 2; i {
	case len(acceptEdges):
		return uint64(b[1])
	case len(acceptEdges) + 1:
		return uint64(b[1]) + 1
	default:
		return acceptEdges[i]
	}
}

// blockPreimage returns the counter whose block under key is out. Philox
// rounds run backwards because M0 and M1 are odd, so invertible mod 2^32.
func blockPreimage(out [4]uint32, key Key) Counter {
	inverse := func(m uint32) uint32 {
		x := m // correct to 3 bits; each Newton step doubles that
		for i := 0; i < 4; i++ {
			x *= 2 - m*x
		}
		return x
	}
	im0, im1 := inverse(philoxM0), inverse(philoxM1)
	c0, c1, c2, c3 := out[0], out[1], out[2], out[3]
	for r := rounds - 1; r >= 0; r-- {
		k0, k1 := key[0]+uint32(r)*philoxW0, key[1]+uint32(r)*philoxW1
		p0, p2 := c3*im0, c1*im1
		hi0, _ := mulhilo(philoxM0, p0)
		hi1, _ := mulhilo(philoxM1, p2)
		c0, c1, c2, c3 = p0, c0^hi1^k0, p2, c2^hi0^k1
	}
	return Counter{c0, c1, c2, c3}
}

// edgeDraws are the draws an accept compare must classify exactly: the
// extremes and the two sides of the sign boundary. Random draws almost never
// reach 0xFFFFFFFF, the only draw that separates a threshold of 2^32 (accept
// everything) from 2^32-1, so the accept tests run Philox backwards
// (edgeCounter) to place a block of edge draws where they want one.
var edgeDraws = [4]uint32{0xFFFFFFFF, 0, 0x7FFFFFFF, 0x80000000}

// edgeCounter returns the counter whose block under key is edgeDraws.
func edgeCounter(t *testing.T, key Key) Counter {
	ctr := blockPreimage(edgeDraws, key)
	if got := Block(ctr, key); got != edgeDraws {
		t.Fatalf("Block(blockPreimage(%#x)) = %#x", edgeDraws, got)
	}
	return ctr
}

// laneKey is lane l's key in the lane tests.
func laneKey(l int) Key {
	return Key{uint32(l)*0x9E3779B9 + 1, uint32(l)*0xBB67AE85 + 2}
}
