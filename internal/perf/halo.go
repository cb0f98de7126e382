package perf

import (
	"fmt"

	"tpuising/internal/interconnect"
)

// ShardSpec describes the host sharded-multispin decomposition (see
// internal/ising/sharded) for interconnect-traffic modelling: a Rows x Cols
// global lattice split into a GridR x GridC grid of shards, one per mesh
// core, exchanging bit-packed halos each checkerboard half-sweep.
type ShardSpec struct {
	// Rows and Cols are the global lattice dimensions.
	Rows, Cols int
	// GridR and GridC are the shard grid dimensions.
	GridR, GridC int
}

// ShardTrafficReport is the modelled interconnect traffic of one sweep of the
// sharded multispin engine. The byte counts are exact mirrors of what the
// engine's halo exchanges move through the fabric (the engine's measured
// Counts().CommBytes reproduces TotalBytes), and the permute time applies the
// same link cost model that prices the paper's collective-permute column.
type ShardTrafficReport struct {
	// RowHaloBytes is the payload of one packed row-halo message: the shard's
	// boundary row at 1 bit per spin (shard cols / 8).
	RowHaloBytes int64
	// ColHaloBytes is the payload of one packed column-halo message: one
	// boundary spin per shard row, packed 64 per word.
	ColHaloBytes int64
	// RowLinkBytes is the traffic crossing one vertical (north-south) link
	// per sweep, both directions: two row-halo messages each way.
	RowLinkBytes int64
	// ColLinkBytes is the traffic crossing one horizontal (east-west) link
	// per sweep, both directions.
	ColLinkBytes int64
	// TotalBytes is the pod-wide bytes moved per sweep (what the engine's
	// comm counters accumulate).
	TotalBytes int64
	// Events is the pod-wide number of collective operations per sweep
	// (eight per core: four halos, two colours).
	Events int64
	// PermuteSec is the modelled wall time of one sweep's eight lockstep
	// collective permutes under the given link parameters.
	PermuteSec float64
}

// ShardTraffic models the per-sweep halo-exchange traffic of the sharded
// multispin engine on a GridC x GridR torus mesh. It panics if the lattice
// does not decompose over the grid (the engine itself rejects such configs
// with an error).
func ShardTraffic(s ShardSpec, link interconnect.LinkParams) ShardTrafficReport {
	if s.GridR <= 0 || s.GridC <= 0 || s.Rows <= 0 || s.Cols <= 0 {
		panic(fmt.Sprintf("perf: invalid shard spec %+v", s))
	}
	if s.Rows%s.GridR != 0 || s.Cols%(s.GridC*64) != 0 {
		panic(fmt.Sprintf("perf: %dx%d lattice does not decompose over a %dx%d shard grid",
			s.Rows, s.Cols, s.GridR, s.GridC))
	}
	// Halos are bit-packed: a row halo is the shard's boundary row words, a
	// column halo one bit per shard row, 64 rows per word.
	shardRows := s.Rows / s.GridR
	return haloTraffic(s.GridR, s.GridC, int64(s.Cols/64/s.GridC)*8, int64((shardRows+63)/64)*8, link)
}

// haloTraffic is the one halo-exchange model behind ShardTraffic and
// ShardedEnsembleTraffic: every core of a GridC x GridR torus sends one
// row-halo message north and south and one column-halo message east and
// west per half-sweep, two half-sweeps per sweep. The engines differ only
// in the two message sizes. A 1x1 grid is a single core that wraps its own
// rows locally, so it moves nothing: zero bytes, events and permute time.
func haloTraffic(gridR, gridC int, rowHaloBytes, colHaloBytes int64, link interconnect.LinkParams) ShardTrafficReport {
	cores := int64(gridR * gridC)
	if cores == 1 {
		return ShardTrafficReport{}
	}
	rep := ShardTrafficReport{
		RowHaloBytes: rowHaloBytes,
		ColHaloBytes: colHaloBytes,
		RowLinkBytes: 4 * rowHaloBytes,
		ColLinkBytes: 4 * colHaloBytes,
		TotalBytes:   cores * (4*rowHaloBytes + 4*colHaloBytes),
		Events:       cores * 8,
	}
	mesh := interconnect.NewMesh(gridC, gridR)
	mesh.Link = link
	for _, x := range []struct {
		dx, dy int
		bytes  int64
	}{
		{0, 1, rowHaloBytes}, {0, -1, rowHaloBytes},
		{-1, 0, colHaloBytes}, {1, 0, colHaloBytes},
	} {
		sec, _ := mesh.PermuteCost(mesh.ShiftPairs(x.dx, x.dy), x.bytes)
		rep.PermuteSec += 2 * sec // two colour updates per sweep
	}
	return rep
}
