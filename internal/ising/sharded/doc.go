// Package sharded partitions a large 2-D Ising lattice into an R x C grid of
// shards mapped onto the simulated pod mesh (internal/pod), runs the
// bit-packed multispin kernel (internal/ising/multispin) on every shard in
// parallel, and exchanges packed halo rows and columns between mesh
// neighbours through the interconnect fabric each checkerboard half-sweep.
// This is the paper's pod decomposition (Figure 5, Tables 2-4) applied to the
// host engine family: sub-lattice per core, boundary spins traded with the
// four torus neighbours through collective permutes, periodic boundaries
// wrapping across the mesh torus.
//
// Each shard owns shardRows x shardCols spins stored 64 per uint64 word.
// Before a colour update every shard snapshots four halos from its
// neighbours: the packed row above (north) and below (south), and two packed
// *bit columns* — one boundary spin per row, 64 rows per word — carrying the
// east neighbour's first column and the west neighbour's last column. A halo
// is a pre-update snapshot, which is sufficient because every neighbour bit
// the checkerboard update consumes belongs to the colour that the half-sweep
// does not write. Row halos move shardCols/8 bytes per link, column halos
// shardRows/8 bytes — the 1 bit/spin packing the paper's bfloat16
// implementation cannot reach.
//
// The engine draws its randoms from the shared multispin.Kernel keyed by
// *global* (seed, step, row, column), so a sharded run is bit-identical to
// the single-core multispin chain at the same seed, for every shard grid —
// the property the distributed correctness tests assert, mirroring how the
// paper validates the TPU pod against the single-core implementation.
//
// The decomposition itself — shard geometry, the four halo permutes per
// half-sweep, the lockstep sweep loop and the global row walk behind the
// gather, scatter, hash and snapshot — is the Driver, which the engine
// plugs its word layout and block kernel into. The Driver calls the kernel
// once per shard or row band and colour with a multispin.Block: the block's
// contiguous words, the rows just above and below it, the received west and
// east halo columns (nil on a single core) and the global row and column of
// its first site. A 1x1 grid is the single core,
// the paper's single-core program: it runs no pod or fabric exchange and
// moves no interconnect traffic, reads its neighbour rows live and wraps
// each row onto its own end words, and splits its rows into Config.Workers
// host row bands with pre-update copies of the band-boundary rows. The
// registry serves the multispin backend as this one-shard engine
// (Config.Name "multispin"). The lane-packed composed engine
// (internal/ising/shardedensemble), the batch form of both backends, runs on
// the same Driver with 64-lane site words, one word per boundary site in its
// column halos.
package sharded
