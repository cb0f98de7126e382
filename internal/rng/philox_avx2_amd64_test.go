package rng

import (
	"testing"
	"time"
)

// TestHasAVX2MatchesCPUID: the exported report is the runtime gate itself, so
// a perf row that reads rng_avx2 names the kernel that actually ran.
func TestHasAVX2MatchesCPUID(t *testing.T) {
	if got, want := HasAVX2(), detectAVX2(); got != want {
		t.Fatalf("HasAVX2() = %v, detectAVX2() = %v", got, want)
	}
}

// TestVectorKernelsBeatPortable bounds the vector kernels' speed, which no
// known-answer or golden test can: a kernel that computes the right words
// slowly (a legacy-SSE move inside the ymm loop once made them 4-20x slower,
// depending on the CPU) passes every equality check. Each kernel is timed on
// the vector path and on the portable path, interleaved so both see the same
// machine load, and the minimum of several repetitions is compared. Every
// kernel draws 256 blocks per call. The vector path must be at least twice
// as fast: it is 4-5x faster on a 2-vCPU Xeon, while one legacy-SSE move
// per iteration brought it to within 10% of the portable loop there, so
// merely "faster" would not catch it.
func TestVectorKernelsBeatPortable(t *testing.T) {
	if !HasAVX2() {
		t.Skip("CPU has no AVX2: only the portable path exists")
	}
	ctr, key := Counter{1, 2, 3, 4}, Key{5, 6}
	blocks := make([]uint32, 4*256)
	a4, a8 := make([]uint32, 32), make([]uint32, 32)
	k0s, k1s := make([]uint32, 64), make([]uint32, 64)
	t4s, t8s := make([]uint64, 64), make([]uint64, 64)
	for l := range k0s {
		k0s[l], k1s[l] = uint32(l), uint32(7*l)
		t4s[l], t8s[l] = 1<<31, 1<<29
	}
	var m4, m8 [4]uint64
	kernels := []struct {
		name string
		call func()
	}{
		{"BlockRow", func() { BlockRow(blocks, ctr, key) }},
		{"AcceptRow", func() { AcceptRow(a4, a8, ctr, key, 1<<31, 1<<29) }},
		{"BlockLanes", func() {
			for g := uint32(0); g < 4; g++ {
				BlockLanes(blocks[:256], Counter{1, 2, 3, g}, k0s, k1s)
			}
		}},
		{"AcceptLanes", func() {
			for g := uint32(0); g < 4; g++ {
				AcceptLanes(&m4, &m8, Counter{1, 2, 3, g}, k0s, k1s, t4s, t8s)
			}
		}},
	}
	const reps, calls = 9, 50
	timeCalls := func(call func(), vector bool) time.Duration {
		saved := useAVX2
		useAVX2 = vector
		defer func() { useAVX2 = saved }()
		start := time.Now()
		for i := 0; i < calls; i++ {
			call()
		}
		return time.Since(start)
	}
	for _, k := range kernels {
		vec, port := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < reps; r++ {
			vec = min(vec, timeCalls(k.call, true))
			port = min(port, timeCalls(k.call, false))
		}
		t.Logf("%s: vector %v, portable %v per %d calls (min of %d)", k.name, vec, port, calls, reps)
		if 2*vec > port {
			t.Errorf("%s: vector path (%v) is not twice as fast as the portable path (%v)", k.name, vec, port)
		}
	}
}
