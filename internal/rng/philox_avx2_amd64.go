package rng

// On amd64 the batch entry points dispatch to the vector kernels in
// philox_avx512_amd64.s and philox_avx2_amd64.s when the CPU supports them.
// The runtime check below is the only gate: it keeps every amd64 binary
// correct on a machine without AVX-512 or AVX2, or whose OS does not save
// the zmm or ymm state, where the next narrower path runs instead.

// kernelTier is the widest family of batch kernels a CPU and its OS allow.
type kernelTier int

const (
	tierPortable kernelTier = iota // the portable Go loops
	tierAVX2                       // philox_avx2_amd64.s
	tierAVX512                     // philox_avx512_amd64.s for the accept kernels, AVX2 for the rest
)

func (t kernelTier) String() string {
	return [...]string{"portable", "avx2", "avx512"}[t]
}

// The tier is computed once at init from CPUID (the toolchain has no
// dependency on golang.org/x/sys/cpu, so the feature test is hand-rolled in
// the assembly file). useAVX2 and useAVX512 gate the dispatch; the tests
// switch them to run every path on one host.
var (
	hostTier  = detectKernelTier()
	useAVX2   = hostTier >= tierAVX2
	useAVX512 = hostTier >= tierAVX512
)

// detectKernelTier reads the CPUID leaves and XCR0 that kernelTierFor
// decides on. It reads XCR0 only when the OS has enabled XGETBV
// (CPUID.1:ECX.OSXSAVE) and leaf 7 only when the CPU reports it.
func detectKernelTier() kernelTier {
	maxLeaf, _, _, _ := cpuid(0, 0)
	var ecx1, ebx7 uint32
	var xcr0 uint64
	if maxLeaf >= 1 {
		_, _, ecx1, _ = cpuid(1, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0 = xgetbv0()
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	return kernelTierFor(maxLeaf, ecx1, xcr0, ebx7)
}

const (
	cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX
	cpuidAVX     = 1 << 28 // CPUID.1:ECX

	cpuidAVX2     = 1 << 5  // CPUID.(7,0):EBX
	cpuidBMI2     = 1 << 8  // CPUID.(7,0):EBX
	cpuidAVX512F  = 1 << 16 // CPUID.(7,0):EBX
	cpuidAVX512VL = 1 << 31 // CPUID.(7,0):EBX

	xcr0YMM = 1<<1 | 1<<2                  // xmm and ymm state
	xcr0ZMM = xcr0YMM | 1<<5 | 1<<6 | 1<<7 // ... plus opmask, zmm0-15 upper halves, zmm16-31
)

// kernelTierFor decides the kernel tier from the maximum basic CPUID leaf,
// CPUID.1:ECX, XCR0 and CPUID.(7,0):EBX. AVX2 needs leaf 7, OSXSAVE+AVX and
// an OS that saves the ymm state; the AVX-512 kernels also need every
// feature their instructions use (AVX-512F, AVX-512VL for the ymm tails,
// BMI2 for PDEP) and an OS that saves the opmask and full zmm state.
func kernelTierFor(maxLeaf, ecx1 uint32, xcr0 uint64, ebx7 uint32) kernelTier {
	const avx = cpuidOSXSAVE | cpuidAVX
	if maxLeaf < 7 || ecx1&avx != avx || xcr0&xcr0YMM != xcr0YMM || ebx7&cpuidAVX2 == 0 {
		return tierPortable
	}
	const avx512 = cpuidAVX512F | cpuidAVX512VL | cpuidBMI2
	if ebx7&avx512 != avx512 || xcr0&xcr0ZMM != xcr0ZMM {
		return tierAVX2
	}
	return tierAVX512
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

// acceptRowsAVX2 writes the word-aligned accept masks of n (positive) words
// of rows of rowWords (positive, dividing n) words: bit 2(4b+c) of a4[k]
// (a8[k]) for word k = i*rowWords+w is set when component c of
// Block({ctr[0], ctr[1], ctr[2]+i, ctr[3]+8w+b}, key) is below t4 (t8),
// each counter word wrapping mod 2^32 on its own, and every odd bit is
// zero. A threshold of 2^32 or more accepts everything.
//
//go:noescape
func acceptRowsAVX2(a4, a8 *uint64, n, rowWords uint64, ctr Counter, key Key, t4, t8 uint64)

// acceptLanesAVX2 writes byte i of a4[c] (a8[c]) for i < n/8: bit l of the
// lane masks is set when component c of Block(ctr, Key{k0s[l], k1s[l]}) is
// below t4s[l] (t8s[l]). n is a positive multiple of 8; a threshold from
// 2^32 up to 2^63 accepts everything.
//
//go:noescape
func acceptLanesAVX2(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64)
