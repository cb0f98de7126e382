// Package multispin implements a bit-packed multi-spin-coded checkerboard
// Metropolis engine for the 2-D Ising model: 64 spins are stored per uint64
// word (bit 1 = spin up) and the four-neighbour interaction of all 64 lattice
// columns of a word is evaluated at once with shifts, XORs and a bit-sliced
// population count, the standard multi-spin coding technique of the
// GPU implementations the paper compares against (Preis et al., Block et
// al., Romero & Fatica).
//
// Because a spin and its neighbour agree exactly when their bits are equal,
// the local field enters only through the number of disagreeing neighbours
// d in 0..4: the Metropolis acceptance probability exp(-2*beta*s*nn) with
// s*nn = 4 - 2d is 1 for d >= 2 and exp(-4*beta), exp(-8*beta) for d = 1, 0.
// The two non-trivial probabilities are precomputed as 32-bit integer
// thresholds, so the accept/reject of a site is a single unsigned compare of
// a Philox random word -- no floating point in the hot loop. The optimized
// row kernel does not even see the random words: rng.AcceptRows runs that
// compare in the registers where each Philox block is generated (AVX-512 or
// AVX2 on amd64 CPUs that have them) and hands back one accept bit per site,
// for a whole run of narrow rows per call.
//
// Randomness is site-keyed like the rest of the repository: the random for
// lattice site (r, c) at colour-step t is a pure function of (seed, t, r, c),
// so the chain is deterministic and independent of the number of worker
// goroutines. One Philox block yields the randoms of four neighbouring
// same-colour sites, amortising the generator fourfold over the scalar
// engines. Every site draws its own random, so the update is exact
// Metropolis.
//
// The package holds the kernel only. The engine that runs it is the pod
// Driver of internal/ising/sharded: the multispin backend is its one-shard
// grid, the single core, and every larger grid runs the same kernel on each
// shard.
package multispin

// WordBits is the number of lattice columns packed per machine word.
const WordBits = 64

// evenMask selects the even bit positions (even lattice columns) of a word.
const evenMask = 0x5555555555555555

// acceptThreshold maps an acceptance probability to the 33-bit integer
// threshold t such that a 32-bit uniform u accepts exactly when u < t.
func acceptThreshold(p float64) uint64 {
	if p >= 1 {
		return 1 << 32
	}
	if p <= 0 {
		return 0
	}
	return uint64(p * (1 << 32))
}
