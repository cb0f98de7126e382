package rng

import (
	"testing"
	"time"
)

// TestHasAVX2MatchesCPUID: the exported report is the runtime gate itself, so
// a perf row that reads rng_avx2 names the kernel that actually ran.
func TestHasAVX2MatchesCPUID(t *testing.T) {
	if got, want := HasAVX2(), detectKernelTier() >= tierAVX2; got != want {
		t.Fatalf("HasAVX2() = %v, detected tier %v", got, detectKernelTier())
	}
}

// TestHasAVX512MatchesCPUID: likewise for rng_avx512.
func TestHasAVX512MatchesCPUID(t *testing.T) {
	if got, want := HasAVX512(), detectKernelTier() == tierAVX512; got != want {
		t.Fatalf("HasAVX512() = %v, detected tier %v", got, detectKernelTier())
	}
}

// TestKernelTierFor decides the tier from synthetic CPUID and XCR0 values:
// every feature bit and every OS-saved state component the kernels need is
// taken away in turn.
func TestKernelTierFor(t *testing.T) {
	const (
		ecx1    = cpuidOSXSAVE | cpuidAVX
		ebx7    = cpuidAVX2 | cpuidBMI2 | cpuidAVX512F | cpuidAVX512VL | 1<<17 | 1<<30 // ... DQ, BW
		xcr0    = 1 | xcr0ZMM                                                          // x87 too
		leaf    = 0x20
		haswell = cpuidAVX2 | cpuidBMI2
	)
	for _, c := range []struct {
		name    string
		maxLeaf uint32
		ecx1    uint32
		xcr0    uint64
		ebx7    uint32
		want    kernelTier
	}{
		{"avx-512 host", leaf, ecx1, xcr0, ebx7, tierAVX512},
		{"os saves ymm but not zmm", leaf, ecx1, 0x7, ebx7, tierAVX2},
		{"os saves no opmask", leaf, ecx1, xcr0 &^ (1 << 5), ebx7, tierAVX2},
		{"os saves no zmm0-15 upper halves", leaf, ecx1, xcr0 &^ (1 << 6), ebx7, tierAVX2},
		{"os saves no zmm16-31", leaf, ecx1, xcr0 &^ (1 << 7), ebx7, tierAVX2},
		{"no avx-512f", leaf, ecx1, xcr0, ebx7 &^ cpuidAVX512F, tierAVX2},
		{"no avx-512vl", leaf, ecx1, xcr0, ebx7 &^ cpuidAVX512VL, tierAVX2},
		{"no bmi2", leaf, ecx1, xcr0, ebx7 &^ cpuidBMI2, tierAVX2},
		{"avx2 host", leaf, ecx1, 0x7, haswell, tierAVX2},
		{"max leaf 6", 6, ecx1, xcr0, ebx7, tierPortable},
		{"no avx2", leaf, ecx1, xcr0, ebx7 &^ cpuidAVX2, tierPortable},
		{"no osxsave", leaf, cpuidAVX, xcr0, ebx7, tierPortable},
		{"no avx", leaf, cpuidOSXSAVE, xcr0, ebx7, tierPortable},
		{"os saves no ymm", leaf, ecx1, 0x3, ebx7, tierPortable},
		{"no xcr0", leaf, ecx1, 0, ebx7, tierPortable},
	} {
		if got := kernelTierFor(c.maxLeaf, c.ecx1, c.xcr0, c.ebx7); got != c.want {
			t.Errorf("%s: kernelTierFor(%#x, %#x, %#x, %#x) = %v, want %v",
				c.name, c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, got, c.want)
		}
	}
}

// TestVectorKernelsBeatPortable bounds the vector kernels' speed, which no
// known-answer or golden test can: a kernel that computes the right words
// slowly (a legacy-SSE move inside the ymm loop once made them 4-20x slower,
// depending on the CPU) passes every equality check. Each kernel is timed on
// the host's dispatch and on the portable path, interleaved so both see the
// same machine load, and the minimum of several repetitions is compared.
// Every kernel draws 256 blocks per call. The vector path must be at least
// twice as fast: it is 4-5x faster on a 2-vCPU Xeon, while one legacy-SSE
// move per iteration brought it to within 10% of the portable loop there, so
// merely "faster" would not catch it. On an AVX-512 host each accept kernel
// is also timed on the AVX2 path and must beat it by 1.3x (it measured
// 1.55-1.95x on a 2-vCPU Sapphire Rapids Xeon), so a zmm kernel that
// silently lost its second state or its vector width fails here.
func TestVectorKernelsBeatPortable(t *testing.T) {
	if !HasAVX2() {
		t.Skip("CPU has no AVX2: only the portable path exists")
	}
	ctr, key := Counter{1, 2, 3, 4}, Key{5, 6}
	blocks := make([]uint32, 4*256)
	a4, a8 := make([]uint64, 32), make([]uint64, 32)
	k0s, k1s := make([]uint32, 64), make([]uint32, 64)
	t4s, t8s := make([]uint64, 64), make([]uint64, 64)
	for l := range k0s {
		k0s[l], k1s[l] = uint32(l), uint32(7*l)
		t4s[l], t8s[l] = 1<<31, 1<<29
	}
	var m4, m8 [4]uint64
	kernels := []struct {
		name   string
		avx512 bool // has an AVX-512 kernel
		call   func()
	}{
		{"BlockRow", false, func() { BlockRow(blocks, ctr, key) }},
		{"AcceptRows", true, func() { AcceptRows(a4, a8, len(a4), ctr, key, 1<<31, 1<<29) }},
		{"BlockLanes", false, func() {
			for g := uint32(0); g < 4; g++ {
				BlockLanes(blocks[:256], Counter{1, 2, 3, g}, k0s, k1s)
			}
		}},
		{"AcceptLanes", true, func() {
			for g := uint32(0); g < 4; g++ {
				AcceptLanes(&m4, &m8, Counter{1, 2, 3, g}, k0s, k1s, t4s, t8s)
			}
		}},
	}
	const reps, calls = 9, 50
	timeCalls := func(call func(), avx2, avx512 bool) time.Duration {
		saved2, saved512 := useAVX2, useAVX512
		useAVX2, useAVX512 = saved2 && avx2, saved512 && avx512
		defer func() { useAVX2, useAVX512 = saved2, saved512 }()
		start := time.Now()
		for i := 0; i < calls; i++ {
			call()
		}
		return time.Since(start)
	}
	const never = time.Duration(1 << 62)
	for _, k := range kernels {
		wide := k.avx512 && HasAVX512()
		vec, port, avx2 := never, never, never
		for r := 0; r < reps; r++ {
			vec = min(vec, timeCalls(k.call, true, true))
			port = min(port, timeCalls(k.call, false, false))
			if wide {
				avx2 = min(avx2, timeCalls(k.call, true, false))
			}
		}
		if wide {
			t.Logf("%s: avx512 %v, avx2 %v, portable %v per %d calls (min of %d)", k.name, vec, avx2, port, calls, reps)
			if 13*vec > 10*avx2 {
				t.Errorf("%s: AVX-512 path (%v) is not 1.3x as fast as the AVX2 path (%v)", k.name, vec, avx2)
			}
		} else {
			t.Logf("%s: vector %v, portable %v per %d calls (min of %d)", k.name, vec, port, calls, reps)
		}
		if 2*vec > port {
			t.Errorf("%s: vector path (%v) is not twice as fast as the portable path (%v)", k.name, vec, port)
		}
	}
}
