// Package ensemble implements a lane-packed many-replica Ising engine: up to
// 64 *independent chains* are stored per uint64 word, one bit-lane per chain,
// so every word holds the same lattice site of 64 different replicas (the
// multi-spin-coding-across-replicas technique of Block, Virnau & Preis,
// arXiv:1007.3726, and the per-device ensembles of Romero et al.,
// arXiv:1906.06297). Where internal/ising/multispin packs 64 *columns* of one
// chain per word, this engine packs 64 *chains* per word — the neighbour
// words of a site carry the neighbours of all lanes at once, so one pass of
// the shared bit-sliced classifier (multispin.DisagreeClasses) updates the
// whole ensemble with no cross-column shifting at all.
//
// Lane L draws through its own Philox key derived from
// ising.LaneSeed(seed, L), consuming exactly the site randoms a standalone
// multispin chain with that seed would. Lane L of the packed engine is
// therefore bit-identical to that standalone chain — the determinism
// contract the lane-equivalence tests assert — and each lane can run at its
// own temperature, which is what lets a whole tempering ladder or
// temperature scan run as one ensemble. The randoms are site-keyed pure
// functions of (seed, step, site), so the chains are deterministic and
// independent of the worker count, exactly like the rest of the repository.
// The hot loop draws each four-site group for all lanes with one
// rng.AcceptLanes call, which compares every lane's randoms with that lane's
// thresholds in vector registers and returns the group's lane accept masks.
//
// The package holds the kernel only. The engine that runs it is
// internal/ising/shardedensemble on the pod Driver: the multispin backend's
// batches of 32 to 64 lanes (backend.NewBatch, reporting "ensemble") are its
// one-shard grid, and a sharded batch of 16 to 64 lanes on a pod grid runs
// the same kernel on every shard.
package ensemble

// MaxLanes is the number of replicas packed per uint64 word.
const MaxLanes = 64

// laneMask returns the word mask selecting the active lane bits.
func laneMask(lanes int) uint64 {
	if lanes >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(lanes)) - 1
}
