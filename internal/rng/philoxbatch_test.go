package rng

import (
	"testing"
)

// disableAVX2 routes the batch entry points to the portable loop for the rest
// of t and restores the CPUID-derived dispatch on cleanup. Tests that use it
// must not run in parallel with other tests of this package.
func disableAVX2(t testing.TB) {
	saved := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = saved })
}

// forEachDispatch runs body once on the portable loop (vector dispatch turned
// off) and once on the host's dispatch (the AVX2 kernels where HasAVX2 is
// true), so one test run checks both paths against the scalar reference.
func forEachDispatch(t *testing.T, body func(t *testing.T)) {
	t.Run("portable", func(t *testing.T) {
		disableAVX2(t)
		body(t)
	})
	t.Run("host", func(t *testing.T) {
		t.Logf("avx2 kernels active: %v", HasAVX2())
		body(t)
	})
}

// TestBlockRowMatchesBlock: BlockRow is Block evaluated at consecutive
// counters — exactly, for every length that exercises the vector body, the
// 4-way portable body and the scalar tail, including counter wraparound.
func TestBlockRowMatchesBlock(t *testing.T) {
	forEachDispatch(t, testBlockRowMatchesBlock)
}

func testBlockRowMatchesBlock(t *testing.T) {
	key := Key{0xDEADBEEF, 0x1BD11BDA}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 32, 100, 256} {
		for _, ctr := range []Counter{
			{0, 0, 0, 0},
			{1, 2, 3, 4},
			{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 0xFFFFFFF0}, // c3 wraps mid-run
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
// keys — exactly, across vector/portable/tail lane counts.
func TestBlockLanesMatchesBlock(t *testing.T) {
	forEachDispatch(t, testBlockLanesMatchesBlock)
}

func testBlockLanesMatchesBlock(t *testing.T) {
	ctr := Counter{101, 102, 103, 104}
	for _, lanes := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64} {
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
