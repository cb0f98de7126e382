//go:build !amd64

package rng

// Portable platforms: the batch entry points never dispatch to vector code.
// The stubs exist so philoxbatch.go compiles identically on every
// architecture; they are unreachable because useAVX2 and useAVX512 stay
// false. They are variables, as on amd64, so the tests' dispatch hooks
// compile everywhere.

var useAVX2, useAVX512 = false, false

func blockRowAVX2(dst *uint32, n uint64, ctr Counter, key Key) {
	panic("rng: AVX2 kernel called on a non-amd64 build")
}

func blockLanesAVX2(dst *uint32, n uint64, ctr Counter, k0s, k1s *uint32) {
	panic("rng: AVX2 kernel called on a non-amd64 build")
}

func acceptRowsAVX2(a4, a8 *uint64, n, rowWords uint64, ctr Counter, key Key, t4, t8 uint64) {
	panic("rng: AVX2 kernel called on a non-amd64 build")
}

func acceptLanesAVX2(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64) {
	panic("rng: AVX2 kernel called on a non-amd64 build")
}

func acceptRowsAVX512(a4, a8 *uint64, n, rowWords uint64, ctr Counter, key Key, t4, t8 uint64) {
	panic("rng: AVX-512 kernel called on a non-amd64 build")
}

func acceptLanesAVX512(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64) {
	panic("rng: AVX-512 kernel called on a non-amd64 build")
}
