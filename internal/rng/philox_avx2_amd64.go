package rng

// On amd64 the batch entry points dispatch to the vector kernels in
// philox_avx2_amd64.s when the CPU supports them. The runtime check below is
// the only gate: it keeps every amd64 binary correct on a pre-Haswell
// machine or one whose OS does not save the ymm state, where the portable
// loop runs instead.

// useAVX2 gates the vector dispatch. It is computed once at init from CPUID
// (the toolchain has no dependency on golang.org/x/sys/cpu, so the feature
// test is hand-rolled in the assembly file): AVX2 needs CPUID.1 OSXSAVE+AVX,
// XCR0 enabling xmm+ymm state, and CPUID.(7,0) EBX bit 5.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	_, _, cx, _ := cpuid(1, 0)
	const osxsaveAVX = 1<<27 | 1<<28
	if cx&osxsaveAVX != osxsaveAVX {
		return false
	}
	if xgetbv0()&6 != 6 { // xmm and ymm state enabled by the OS
		return false
	}
	_, bx, _, _ := cpuid(7, 0)
	return bx&(1<<5) != 0
}

// cpuid executes the CPUID instruction (leaf in AX, subleaf in CX).
func cpuid(leaf, sub uint32) (ax, bx, cx, dx uint32)

// xgetbv0 reads extended control register 0 (XCR0).
func xgetbv0() uint64

// blockRowAVX2 writes n (a positive multiple of 8) consecutive-counter Philox
// blocks to dst in Block's output order: dst[4i+k] = Block(ctr+i, key)[k],
// where ctr+i increments only ctr[3] mod 2^32.
//
//go:noescape
func blockRowAVX2(dst *uint32, n uint64, ctr Counter, key Key)

// blockLanesAVX2 writes n (a positive multiple of 8) fixed-counter Philox
// blocks to dst, lane l drawing under Key{k0s[l], k1s[l]}.
//
//go:noescape
func blockLanesAVX2(dst *uint32, n uint64, ctr Counter, k0s, k1s *uint32)

// acceptRowAVX2 writes the accept masks of n (positive) words: bit 4b+c of
// a4[w] (a8[w]) is set when component c of Block(ctr+8w+b, key) is below t4
// (t8), with ctr+i incrementing only ctr[3] mod 2^32. A threshold of 2^32 or
// more accepts everything.
//
//go:noescape
func acceptRowAVX2(a4, a8 *uint32, n uint64, ctr Counter, key Key, t4, t8 uint64)

// acceptLanesAVX2 writes byte i of a4[c] (a8[c]) for i < n/8: bit l of the
// lane masks is set when component c of Block(ctr, Key{k0s[l], k1s[l]}) is
// below t4s[l] (t8s[l]). n is a positive multiple of 8; a threshold from
// 2^32 up to 2^63 accepts everything.
//
//go:noescape
func acceptLanesAVX2(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64)
