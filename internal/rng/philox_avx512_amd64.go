package rng

// acceptRowsAVX512 is acceptRowsAVX2 on sixteen-block zmm states (see
// philox_avx512_amd64.s): the same masks for every positive n and row width.
//
//go:noescape
func acceptRowsAVX512(a4, a8 *uint64, n, rowWords uint64, ctr Counter, key Key, t4, t8 uint64)

// acceptLanesAVX512 is acceptLanesAVX2 on sixteen-lane zmm states: the same
// masks for every positive multiple of 8 up to 64.
//
//go:noescape
func acceptLanesAVX512(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64)
