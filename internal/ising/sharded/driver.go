package sharded

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"tpuising/internal/device/metrics"
	"tpuising/internal/interconnect"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/pod"
)

// Geometry is the part of a pod engine's configuration the driver owns: the
// lattice, the shard grid, and the engine's word layout.
type Geometry struct {
	// Engine prefixes the driver's validation errors.
	Engine string
	// Rows and Cols are the per-chain lattice dimensions: Rows even and
	// divisible by GridR, Cols a positive multiple of 64 divisible by
	// GridC into shards of whole ColGroup-column groups.
	Rows, Cols int
	// GridR and GridC are the shard grid dimensions (0 means 1).
	GridR, GridC int
	// SiteBits is the number of word bits one site occupies: 1 for
	// spin-packed words (64 columns per word), 64 for lane-packed words (one
	// site per word, one bit per replica). A boundary column travels as
	// halo words at the same density — bit-packed, 64 rows per word, for
	// spin words; one word per row for lane words.
	SiteBits int
	// ColGroup is the column granularity of the row kernel: shards are a
	// whole number of ColGroup-column groups wide.
	ColGroup int
	// Lanes is the number of chains each site word carries (0 means 1); it
	// scales the attempted updates Counts reports.
	Lanes int
	// Workers is the number of host row bands a one-shard grid splits its
	// rows into, one goroutine each (0 = GOMAXPROCS at construction, at most
	// one band per row). A pod grid runs one goroutine per shard instead.
	// The chain never depends on it.
	Workers int
}

// BlockKernel updates the sites of one colour in a block of shard rows: a
// row band of a single core, or every row of a shard on a pod grid (see
// multispin.Block). worker identifies the goroutine making the call — the
// shard on a pod grid, the row band on a single core — and is below
// Driver.Workers; calls with different workers run concurrently.
type BlockKernel func(worker int, b *multispin.Block, parity int, step uint64)

// shard is one core's block of the lattice: its words, its global offset
// and, on a pod grid, the halos received for the current half-sweep.
type shard struct {
	multispin.Block
	edge []uint64 // outgoing boundary column
}

// Driver runs one engine over an R x C grid of shards on the simulated pod
// mesh: it owns the shards, the halo exchanges and the sweep loop, and
// walks the shards in global order for the engine's gather, scatter and
// observables. The engine supplies its word layout (Geometry) and its row
// kernel.
//
// A 1x1 grid is a single core, the paper's single-core program: it runs no
// pod or fabric exchange, so it moves no interconnect traffic. Its
// neighbours are its own rows, read live, and its wrap words are the row's
// own end words. Its rows split into Geometry.Workers host bands instead,
// and it builds no pod unless Pod asks for one.
type Driver struct {
	rows, cols   int
	gridR, gridC int
	shardRows    int
	shardCols    int // sites per shard row
	rowWords     int // words per shard row
	siteBits     uint
	siteMask     uint64 // low siteBits bits
	lanes        int64
	mesh         interconnect.Mesh // shard grid geometry only: no link model
	pod          *pod.Pod          // nil on a one-shard grid until Pod is called
	shards       []*shard          // indexed by core ID (row-major over the mesh grid)
	kernel       BlockKernel
	step         uint64
	bands        []multispin.Block // one-shard grid only
}

// NewDriver validates the geometry and allocates a cold (all +1) lattice
// over the shards.
func NewDriver(g Geometry, kernel BlockKernel) (*Driver, error) {
	gridR, gridC := max(g.GridR, 1), max(g.GridC, 1)
	if g.GridR < 0 || g.GridC < 0 {
		return nil, fmt.Errorf("%s: shard grid must be positive, got %dx%d", g.Engine, g.GridR, g.GridC)
	}
	if g.Rows < 2 || g.Rows%2 != 0 {
		return nil, fmt.Errorf("%s: rows must be even and >= 2, got %d", g.Engine, g.Rows)
	}
	if g.Rows%gridR != 0 {
		return nil, fmt.Errorf("%s: %d rows do not divide over %d shard rows (want rows %% gridR == 0)",
			g.Engine, g.Rows, gridR)
	}
	if g.Cols <= 0 || g.Cols%WordBits != 0 {
		return nil, fmt.Errorf("%s: cols must be a positive multiple of %d, got %d", g.Engine, WordBits, g.Cols)
	}
	if g.Cols%(gridC*g.ColGroup) != 0 {
		return nil, fmt.Errorf(
			"%s: %d cols do not divide over %d shard columns into whole %d-column groups (want cols %% (gridC*%d) == 0)",
			g.Engine, g.Cols, gridC, g.ColGroup, g.ColGroup)
	}
	d := &Driver{
		rows: g.Rows, cols: g.Cols,
		gridR: gridR, gridC: gridC,
		shardRows: g.Rows / gridR,
		shardCols: g.Cols / gridC,
		siteBits:  uint(g.SiteBits),
		siteMask:  ^uint64(0) >> (WordBits - g.SiteBits),
		lanes:     int64(max(g.Lanes, 1)),
		kernel:    kernel,
		// Mesh X axis = shard columns, Y axis = shard rows, matching the
		// paper's mapping of the lattice onto the pod grid.
		mesh: interconnect.Mesh{NX: gridC, NY: gridR},
	}
	if gridR*gridC > 1 {
		d.pod = pod.New(gridC, gridR)
	}
	d.rowWords = d.shardCols * g.SiteBits / WordBits
	sitesPerWord := WordBits / g.SiteBits
	d.shards = make([]*shard, d.mesh.NumCores())
	for id := range d.shards {
		x, y := d.mesh.Coord(id)
		sh := &shard{
			Block: multispin.Block{
				Words: make([]uint64, d.shardRows*d.rowWords),
				Rows:  d.shardRows, RowWords: d.rowWords,
				Row: y * d.shardRows, Col: x * d.shardCols,
			},
			edge: make([]uint64, (d.shardRows+sitesPerWord-1)/sitesPerWord),
		}
		for i := range sh.Words {
			sh.Words[i] = ^uint64(0)
		}
		d.shards[id] = sh
	}
	if len(d.shards) == 1 {
		d.planBands(g.Workers)
	}
	return d, nil
}

// planBands splits a one-shard grid's rows into at most `workers` equal
// bands (0 = GOMAXPROCS). One band holding every row reads its north and
// south rows live with the torus wrap; several bands get boundary-row copy
// buffers, filled before every colour update.
func (d *Driver) planBands(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sh := d.shards[0]
	rowsPer := (d.rows + workers - 1) / workers
	for r0 := 0; r0 < d.rows; r0 += rowsPer {
		b := sh.Block
		b.Rows, b.Row = min(rowsPer, d.rows-r0), r0
		b.Words = sh.Words[r0*d.rowWords : (r0+b.Rows)*d.rowWords]
		if rowsPer < d.rows {
			b.North, b.South = make([]uint64, d.rowWords), make([]uint64, d.rowWords)
		} else {
			b.North, b.South = d.row(sh, d.rows-1), d.row(sh, 0)
		}
		d.bands = append(d.bands, b)
	}
}

// Rows returns the per-chain row count.
func (d *Driver) Rows() int { return d.rows }

// Cols returns the per-chain column count.
func (d *Driver) Cols() int { return d.cols }

// N returns the number of spins of one chain.
func (d *Driver) N() int { return d.rows * d.cols }

// Grid returns the shard grid dimensions (rows, cols of shards).
func (d *Driver) Grid() (gridR, gridC int) { return d.gridR, d.gridC }

// NumShards returns the number of shards (= simulated mesh cores).
func (d *Driver) NumShards() int { return len(d.shards) }

// Workers returns the number of concurrent BlockKernel workers: the shards of
// a pod grid, the row bands of a single core.
func (d *Driver) Workers() int { return max(len(d.shards), len(d.bands)) }

// Step returns the number of colour updates performed so far.
func (d *Driver) Step() uint64 { return d.step }

// SetStep replaces the colour-step counter (for snapshot restores).
func (d *Driver) SetStep(step uint64) { d.step = step }

// Pod exposes the underlying simulated pod (for profiling and tests). A
// one-shard grid never exchanges, so its pod is built on the first call.
func (d *Driver) Pod() *pod.Pod {
	if d.pod == nil {
		d.pod = pod.New(d.gridC, d.gridR)
	}
	return d.pod
}

// Counts reports the attempted spin updates of every chain in Ops (host
// work, like the other host engines) plus the pod-total interconnect traffic
// of the halo exchanges, which the perf package's traffic models mirror
// analytically. A one-shard grid moves none.
func (d *Driver) Counts() metrics.Counts {
	var total metrics.Counts
	if d.pod != nil {
		total = d.pod.TotalCounts()
	}
	return metrics.Counts{
		Ops:        int64(d.step) / 2 * int64(d.N()) * d.lanes,
		CommBytes:  total.CommBytes,
		CommEvents: total.CommEvents,
		CommHops:   total.CommHops,
	}
}

// row returns the words of one local row of a shard.
func (d *Driver) row(sh *shard, r int) []uint64 {
	return sh.Words[r*d.rowWords : (r+1)*d.rowWords]
}

// packEdge gathers the shard's west (first site of every row) or east (last
// site) boundary column into sh.edge, SiteBits bits per row, and returns it.
func (d *Driver) packEdge(sh *shard, east bool) []uint64 {
	clear(sh.edge)
	perWord := WordBits / int(d.siteBits)
	for r := 0; r < d.shardRows; r++ {
		row := d.row(sh, r)
		site := row[0] & d.siteMask
		if east {
			site = row[d.rowWords-1] >> (WordBits - d.siteBits)
		}
		sh.edge[r/perWord] |= site << (uint(r%perWord) * d.siteBits)
	}
	return sh.edge
}

// exchangeHalos trades the four boundary halos with the mesh neighbours
// through the interconnect fabric: whole rows north and south, packed
// boundary columns east and west. Each call is four lockstep collective
// permutes; the received buffers are pre-update snapshots, which is exact
// because a colour update only reads sites of the other colour.
func (d *Driver) exchangeHalos(r *pod.Replica, sh *shard) {
	// Send my last row south; receive my north neighbour's last row.
	sh.North = r.ShiftExchangeWords(d.row(sh, d.shardRows-1), 0, 1)
	// Send my first row north; receive my south neighbour's first row.
	sh.South = r.ShiftExchangeWords(d.row(sh, 0), 0, -1)
	// Send my west column west; receive my east neighbour's west column.
	sh.East = r.ShiftExchangeWords(d.packEdge(sh, false), -1, 0)
	// Send my east column east; receive my west neighbour's east column.
	sh.West = r.ShiftExchangeWords(d.packEdge(sh, true), 1, 0)
}

// UpdateColor performs one colour update (parity 0 = black, 1 = white) of
// the whole lattice at the given colour-step, without advancing the step
// counter: one kernel call per shard or row band. On a pod grid all shards
// exchange halos and update in lockstep; a single core updates its row
// bands concurrently, after copying each band's boundary neighbour rows.
func (d *Driver) UpdateColor(parity int, step uint64) {
	if len(d.shards) > 1 {
		err := d.pod.Replicate(func(r *pod.Replica) error {
			sh := d.shards[r.ID]
			d.exchangeHalos(r, sh)
			d.kernel(r.ID, &sh.Block, parity, step)
			return nil
		})
		if err != nil {
			panic(err)
		}
		return
	}
	if len(d.bands) == 1 {
		d.kernel(0, &d.bands[0], parity, step)
		return
	}
	sh := d.shards[0]
	for _, b := range d.bands {
		copy(b.North, d.row(sh, (b.Row-1+d.rows)%d.rows))
		copy(b.South, d.row(sh, (b.Row+b.Rows)%d.rows))
	}
	var wg sync.WaitGroup
	for i := range d.bands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.kernel(i, &d.bands[i], parity, step)
		}()
	}
	wg.Wait()
}

// Sweep performs one whole-lattice update: every black site, then every
// white site, consuming two colour-step indices like the other engines.
func (d *Driver) Sweep() {
	d.UpdateColor(0, d.step)
	d.UpdateColor(1, d.step+1)
	d.step += 2
}

// Run performs n sweeps.
func (d *Driver) Run(n int) {
	for i := 0; i < n; i++ {
		d.Sweep()
	}
}

// EachRow calls fn with every shard row in global row-major order — the
// word order of the single core — giving the global row and the global
// column of the row's first site.
func (d *Driver) EachRow(fn func(row, col int, words []uint64)) {
	for gr := 0; gr < d.rows; gr++ {
		for x := 0; x < d.gridC; x++ {
			sh := d.shards[d.mesh.ID(x, gr/d.shardRows)]
			fn(gr, sh.Col, d.row(sh, gr-sh.Row))
		}
	}
}

// EachBond calls fn with every shard row, the row below it (across a shard
// boundary, the south neighbour's first row) and the first word of the east
// neighbour's same row, which holds the east bond partner of the row's last
// site. Between sweeps the shards are quiescent, so the walk reads the
// neighbours directly rather than through the fabric.
func (d *Driver) EachBond(fn func(row, south []uint64, eastWord uint64)) {
	for id, sh := range d.shards {
		x, y := d.mesh.Coord(id)
		eastSh := d.shards[d.mesh.ID(x+1, y)]
		south := d.row(d.shards[d.mesh.ID(x, y+1)], 0)
		for r := d.shardRows - 1; r >= 0; r-- {
			row := d.row(sh, r)
			fn(row, south, d.row(eastSh, r)[0])
			south = row
		}
	}
}

// Segment returns the shard row holding global site (row, col) and the
// site's column within it.
func (d *Driver) Segment(row, col int) (words []uint64, localCol int) {
	sh := d.shards[d.mesh.ID(col/d.shardCols, row/d.shardRows)]
	return d.row(sh, row-sh.Row), col - sh.Col
}

// HashWords returns an FNV-1a hash of the lattice words, masked, in global
// row-major order — directly comparable with the hash of the unsharded
// engine holding the same configuration.
func (d *Driver) HashWords(mask uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	d.EachRow(func(_, _ int, words []uint64) {
		for _, v := range words {
			binary.LittleEndian.PutUint64(buf[:], v&mask)
			h.Write(buf[:])
		}
	})
	return h.Sum64()
}
