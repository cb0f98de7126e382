package multispin

import (
	"math"

	"tpuising/internal/ising"
	"tpuising/internal/rng"
)

// Kernel is the reusable core of the bit-packed Metropolis update: the two
// integer acceptance thresholds and the Philox key.
// It is deliberately free of any lattice geometry — UpdateBlock is handed a
// block of packed rows plus its neighbours and the block's *global*
// coordinates, so the single core and every shard of a pod grid
// (internal/ising/sharded) evaluate exactly the same pure function of
// (seed, step, global site) and stay bit-identical to each other.
type Kernel struct {
	// T4 and T8 are the 33-bit integer acceptance thresholds for one and zero
	// disagreeing neighbours (see acceptThreshold).
	T4, T8 uint64
	// Key is the site-keyed Philox key derived from the seed.
	Key rng.Key
}

// NewKernel derives the kernel of a temperature/seed pair. The key derivation
// matches rng.NewSiteKeyed, making the kernel one more member of the
// repository's site-keyed family. Every site draws its own random; shared
// must be false and remains only because the benchmark module passes it.
// NewKernel panics if shared is true.
func NewKernel(temperature float64, seed uint64, shared bool) Kernel {
	if shared {
		panic("multispin: the shared-random mode was removed; every site draws its own random")
	}
	k := Kernel{Key: rng.Key{uint32(seed), uint32(seed>>32) ^ 0x1BD11BDA}}
	k.SetTemperature(temperature)
	return k
}

// Thresholds is the precomputed integer acceptance pair of one temperature:
// the only temperature-dependent state of a kernel, and the only place the
// engine ever touches math.Exp. Consumers that change temperatures often —
// the replica-exchange swap loop flips two lanes per accepted swap — derive
// one Thresholds per ladder rung through a ThresholdCache and install it with
// SetThresholds, paying the two exponentials once per distinct temperature
// instead of twice per swap.
type Thresholds struct {
	T4, T8 uint64
}

// ThresholdsFor computes the acceptance pair of a temperature (two math.Exp
// calls). It panics if temperature is not positive.
func ThresholdsFor(temperature float64) Thresholds {
	if temperature <= 0 {
		panic("multispin: temperature must be positive")
	}
	beta := ising.Beta(temperature)
	return Thresholds{
		T4: acceptThreshold(math.Exp(-4 * beta * ising.J)),
		T8: acceptThreshold(math.Exp(-8 * beta * ising.J)),
	}
}

// ThresholdCache memoizes ThresholdsFor by exact temperature value. A
// tempering ladder revisits the same few rungs for the whole run, so after
// the first visit every SetTemperature on the swap path is one map lookup and
// no floating point. The cache is not safe for concurrent mutation; engines
// own one each and mutate it only from their (single-threaded) control path.
type ThresholdCache struct {
	m map[float64]Thresholds
}

// thresholdCacheLimit bounds the memo so a pathological caller sweeping
// millions of distinct temperatures cannot grow it without limit; on overflow
// the cache resets rather than evicting (ladders are tiny, resets are free).
const thresholdCacheLimit = 1024

// For returns the memoized acceptance pair of a temperature, computing and
// caching it on first sight.
func (c *ThresholdCache) For(temperature float64) Thresholds {
	if th, ok := c.m[temperature]; ok {
		return th
	}
	th := ThresholdsFor(temperature)
	if c.m == nil || len(c.m) >= thresholdCacheLimit {
		c.m = make(map[float64]Thresholds, 8)
	}
	c.m[temperature] = th
	return th
}

// SetTemperature recomputes the acceptance thresholds for a new temperature,
// leaving the key untouched.
func (k *Kernel) SetTemperature(temperature float64) {
	k.SetThresholds(ThresholdsFor(temperature))
}

// SetThresholds installs a precomputed acceptance pair (see ThresholdCache).
func (k *Kernel) SetThresholds(th Thresholds) {
	k.T4, k.T8 = th.T4, th.T8
}

// Flips is the Metropolis classifier of every bit-packed engine's hot loop
// (this package's row kernel and internal/ising/ensemble's lane kernel):
// from the neighbour-disagreement masks d1..d4 of 64 sites (or of 64 chains
// at one site) and their accept masks it returns the sites that flip: those
// with >= 2 disagreeing neighbours, or one and their a4 bit (probability
// exp(-4 beta)), or none and their a8 bit (exp(-8 beta)). With h0 = d1^d2
// and h1 = d3^d4 the count is odd + 2(d1&d2 + d3&d4 + h0&h1), odd = h0^h1:
// the second term marks a count of two or more, and below two the count is
// odd itself, which picks a4 over a8. Like updateWord it stays under the
// compiler's inlining budget (a CI step checks), so no word pays a call.
func Flips(d1, d2, d3, d4, a4, a8 uint64) uint64 {
	h0, h1 := d1^d2, d3^d4
	return d1&d2 | d3&d4 | h0&h1 | (a8 ^ (a4^a8)&(h0^h1))
}

// tileWords is the column-blocking width of the optimized row kernel: accept
// masks are drawn at most tileWords words at a time — a run of whole rows of
// up to tileWords words, or one tile of a wider row — so the scratch holds at
// most 2*tileWords uint64 masks (1 KiB).
const tileWords = 64

// Scratch is the reusable draw buffer of the optimized kernel. Engines keep
// one per worker goroutine and pass it to every UpdateBlock call; the zero
// value is ready to use and grows on first use. It carries no kernel state —
// only scratch memory — so any kernel may use any scratch.
type Scratch struct {
	acc []uint64
}

// masks returns the two n-word accept-mask views of the scratch, growing it
// if needed.
func (s *Scratch) masks(n int) (a4, a8 []uint64) {
	if cap(s.acc) < 2*n {
		s.acc = make([]uint64, 2*n)
	}
	return s.acc[:n], s.acc[n:][:n]
}

// Block is the contiguous block of rows one worker updates in one colour: a
// row band of a single core, or a whole shard of a pod grid. sharded.Driver
// keeps one per band or shard and hands it to the engine's kernel by
// pointer; UpdateBlock walks it by offset, and the lane-packed engine row by
// row (RowAt). Every neighbour a colour update reads belongs to the other
// colour, so live rows, pre-update copies and received halos all serve.
type Block struct {
	// Words holds the block's Rows rows of RowWords words each, row-major.
	Words          []uint64
	Rows, RowWords int
	// North and South are the rows just above and just below the block: on a
	// single core its own torus-wrapped rows or copies of a neighbour band's
	// boundary rows, on a pod grid the received halo rows.
	North, South []uint64
	// West and East are the received boundary columns of the west and east
	// neighbour shards, holding each row's site just beyond the block's west
	// and east edge at the words' site density: one bit per row for spin
	// words (bit r%64 of West[r/64] for row r), one word per row for lane
	// words. Both are nil on a single core, where each row wraps onto its
	// own end words.
	West, East []uint64
	// Row and Col are the global row and column of the block's first site.
	Row, Col int
}

// RowAt returns row r of the block and its north and south neighbour rows.
func (b *Block) RowAt(r int) (row, north, south []uint64) {
	W := b.RowWords
	row, north, south = b.Words[r*W:(r+1)*W], b.North, b.South
	if r > 0 {
		north = b.Words[(r-1)*W : r*W]
	}
	if r+1 < b.Rows {
		south = b.Words[(r+1)*W : (r+2)*W]
	}
	return row, north, south
}

// haloBits returns row r's spin-word wrap words from the block's received
// columns, placed where the word loop reads them: the west neighbour at bit
// 63 of west, the east one at bit 0 of east (the other bits are never read).
func (b *Block) haloBits(r int) (west, east uint64) {
	return b.West[r>>6] << (^r & 63), b.East[r>>6] >> (r & 63)
}

// UpdateRowScratch performs the colour update of the active sites of one
// packed lattice row, in place: the one-row form of UpdateBlock, running the
// word loop of its multi-word rows. row holds the W words of the row; north and south are the
// rows above and below (pre-update snapshots are fine: every neighbour bit
// consumed belongs to the opposite colour, which this update does not
// write). westWrap is the word logically west of row[0] (only its bit 63 is
// consumed) and eastWrap the word logically east of row[W-1] (only its bit 0
// is consumed); a whole row passes its own end words for the torus wrap.
//
// globalRow and wordOff are the row's global row index and the global word
// index of row[0]: they key the site randoms and select the active-colour
// parity, so a window of a larger lattice draws exactly the randoms the
// whole lattice would. Like UpdateBlock it is bit-identical to
// UpdateRowRef, the retained naive reference (pinned by the golden
// equivalence tests in kernel_equiv_test.go).
func (k Kernel) UpdateRowScratch(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64, sc *Scratch) {
	k.updateRow(row, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step, nil, nil, sc)
}

// UpdateBlock performs the colour update of every row of b, the form the
// engines' hot loops use. Rows are addressed by offset into b.Words, with
// b.North and b.South beyond the first and last row. One fused Philox call
// (rng.AcceptRows — the AVX-512 or AVX2 kernel on an amd64 CPU that has
// them, the 4-way portable loop otherwise) draws the accept masks of as many
// whole rows as fit in tileWords words (64 one-word rows, two 32-word rows),
// compared where the randoms are generated and already on the even columns.
// A row wider than tileWords draws its own tiles. Drawing before updating is
// exact because no random depends on a spin. The masks are keyed by the
// block's global row and word, so where a block starts and ends never
// changes the chain.
//
// For one-word rows on a single core the row loop is the word loop: each
// row's north and south are the words before and after it, and its west
// and east the word itself. Wider rows, and one-word shards that read
// halo columns, run updateRow's hoisted tile loop on their slices
// (updateByRow).
//
// Within one colour update the kernel writes only active-colour bits and
// consumes only inactive-colour neighbour bits, so the west bit a word
// consumes (bit 63 of the word before it, an odd-parity column) is the same
// before and after that word's update: it is consumed only by even-parity
// updates and written only by odd-parity ones. That is what lets the loops
// roll neighbours through locals holding pre-update words, so no word waits
// for the previous word's update, and it is the same invariant that makes
// the engines' pre-update halo snapshots exact.
func (k Kernel) UpdateBlock(b *Block, parity int, step uint64, sc *Scratch) {
	if b.RowWords != 1 || b.West != nil {
		k.updateByRow(b, parity, step, sc)
		return
	}
	n := b.Rows
	words := b.Words[:n]
	north, cur, last := b.North[0], words[0], b.South[0]
	// The active columns alternate with the row. Masks come on the even
	// columns with the odd bits zero, so m*3 = m|m<<1 holds each on both
	// columns of its pair, and only cmask needs to follow the row.
	cmask := uint64(evenMask) << uint((parity+b.Row)&1)
	for r0 := 0; r0 < n; r0 += tileWords {
		end := min(r0+tileWords, n)
		rows := words[r0:end]
		next := last // the row after the run
		if end < n {
			next = words[end]
		}
		a4, a8 := k.draw(len(rows), 1, b.Row+r0, b.Col/WordBits, step, sc)
		a4, a8 = a4[:len(rows)], a8[:len(rows)]
		for i := range rows {
			south := next
			if i+1 < len(rows) {
				south = rows[i+1]
			}
			rows[i] = updateWord(cur, north, south, cur, cur, a4[i]*3, a8[i]*3, cmask)
			north, cur, cmask = cur, south, ^cmask
		}
	}
}

// updateByRow is UpdateBlock for rows of several words, or with halo
// columns: per run of whole rows that share a draw, the word loop of each
// row on its slices.
func (k Kernel) updateByRow(b *Block, parity int, step uint64, sc *Scratch) {
	W, n := b.RowWords, b.Rows
	wordOff := b.Col / WordBits
	for r0 := 0; r0 < n; {
		run := 1
		var a4s, a8s []uint64 // the run's masks, row after row; nil: each row draws its own
		if W <= tileWords {
			run = min(n-r0, tileWords/W)
			a4s, a8s = k.draw(run*W, W, b.Row+r0, wordOff, step, sc)
		}
		for i := 0; i < run; i++ {
			r := r0 + i
			row, north, south := b.RowAt(r)
			westWrap, eastWrap := row[W-1], row[0]
			if b.West != nil {
				westWrap, eastWrap = b.haloBits(r)
			}
			k.updateRow(row, north, south, westWrap, eastWrap, b.Row+r, wordOff, parity, step, a4s[i*W:], a8s[i*W:], sc)
		}
		r0 += run
	}
}

// updateRow runs the word loop over one row. a4s and a8s hold the row's
// drawn masks, or are nil when the row draws its own, one tile at a time.
func (k Kernel) updateRow(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64, a4s, a8s []uint64, sc *Scratch) {
	W := len(row)
	p := uint((parity + globalRow) & 1)
	cmask := uint64(evenMask) << p
	for w0 := 0; w0 < W; w0 += tileWords {
		w1 := min(w0+tileWords, W)
		// The tile's words. Reslicing them and the masks to one length, and
		// running the word loop's i from 1 to index i-1 and i, lets the
		// compiler drop every bounds check in that loop.
		r := row[w0:w1]
		n := len(r)
		ns, ss := north[w0:w1][:n], south[w0:w1][:n]
		a4, a8 := a4s, a8s
		if a4 == nil {
			a4, a8 = k.draw(n, n, globalRow, wordOff+w0, step, sc)
		}
		a4, a8 = a4[:n], a8[:n]
		// Hoisted boundary handling: the west neighbour rolls through a
		// local (see UpdateBlock), the east select happens once, for the
		// tile's last word, instead of once per word.
		west := westWrap
		if w0 > 0 {
			west = row[w0-1]
		}
		east := eastWrap
		if w1 < W {
			east = row[w1]
		}
		last := n - 1
		for i := 1; i < n; i++ {
			cur := r[i-1]
			r[i-1] = updateWord(cur, ns[i-1], ss[i-1], r[i], west, a4[i-1]<<p, a8[i-1]<<p, cmask)
			west = cur
		}
		r[last] = updateWord(r[last], ns[last], ss[last], east, west, a4[last]<<p, a8[last]<<p, cmask)
	}
}

// draw draws the masks of n words of whole rowWords-word rows, the first row
// at global row globalRow and every row from global word gw: 8 blocks per
// word at consecutive counters starting at gw*8 and one counter row per
// lattice row, matching the reference's per-word counters exactly (mod-2^32
// arithmetic included), so every accept decision is the reference's.
func (k Kernel) draw(n, rowWords, globalRow, gw int, step uint64, sc *Scratch) (a4s, a8s []uint64) {
	a4s, a8s = sc.masks(n)
	rng.AcceptRows(a4s, a8s, rowWords, rng.Counter{uint32(step), uint32(step >> 32), uint32(int64(globalRow)), uint32(gw * 8)},
		k.Key, k.T4, k.T8)
	return a4s, a8s
}

// updateWord applies one colour update to a 64-column word: the sites of
// the active colour (cmask) that Flips selects change sign. Only bit 0 of
// eastSrc (shifted in as the east neighbour of column 63) and bit 63 of
// westSrc (the west neighbour of column 0) are consumed. It is written as
// one expression to stay under the inlining budget, like Flips.
func updateWord(cur, north, south, eastSrc, westSrc, a4, a8, cmask uint64) uint64 {
	return cur ^ Flips(cur^north, cur^south, cur^(cur>>1|eastSrc<<63), cur^(cur<<1|westSrc>>63), a4, a8)&cmask
}

// UpdateRowRef is the retained naive reference implementation of
// UpdateRowScratch, and row by row of UpdateBlock: word-at-a-time, branching
// wrap selection, randoms drawn two blocks at a time inline. It is never
// called by the engines — it exists so the golden equivalence property tests
// can pin every optimized variant (portable tiled, AVX-512 or AVX2 where the
// CPU has it) to the exact spins this loop produces at any (seed, step,
// geometry).
func (k Kernel) UpdateRowRef(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64) {
	W := len(row)
	s0, s1 := uint32(step), uint32(step>>32)
	t4, t8 := k.T4, k.T8
	// Columns of the active colour in this row have parity p.
	p := (parity + globalRow) & 1
	cmask := uint64(evenMask)
	if p == 1 {
		cmask = ^cmask
	}
	for w := 0; w < W; w++ {
		cur := row[w]
		eastSrc, westSrc := eastWrap, westWrap
		if w+1 < W {
			eastSrc = row[w+1]
		}
		if w > 0 {
			westSrc = row[w-1]
		}
		east := (cur >> 1) | (eastSrc << 63)
		west := (cur << 1) | (westSrc >> 63)
		// d-bits: 1 where the site disagrees with that neighbour.
		d1, d2, d3, d4 := cur^north[w], cur^south[w], cur^east, cur^west
		var a4, a8 uint64
		// One random per active site: lane j&3 of the Philox block keyed
		// by (step, row, j>>2), where j = column/2 is the site's ordinal
		// among same-colour sites in the row. The word's 32 active sites
		// consume 8 blocks with no waste, generated two at a time so the
		// multiplies of independent blocks overlap in the pipeline.
		base := uint32((w + wordOff) * 8)
		rr := uint32(int64(globalRow))
		for j := 0; j < 32; j += 8 {
			ba, bb := rng.BlockPair(
				rng.Counter{s0, s1, rr, base + uint32(j>>2)},
				rng.Counter{s0, s1, rr, base + uint32(j>>2) + 1},
				k.Key)
			pos := uint(2*j + p)
			a4 |= ((uint64(ba[0]) - t4) >> 63) << pos
			a8 |= ((uint64(ba[0]) - t8) >> 63) << pos
			a4 |= ((uint64(ba[1]) - t4) >> 63) << (pos + 2)
			a8 |= ((uint64(ba[1]) - t8) >> 63) << (pos + 2)
			a4 |= ((uint64(ba[2]) - t4) >> 63) << (pos + 4)
			a8 |= ((uint64(ba[2]) - t8) >> 63) << (pos + 4)
			a4 |= ((uint64(ba[3]) - t4) >> 63) << (pos + 6)
			a8 |= ((uint64(ba[3]) - t8) >> 63) << (pos + 6)
			a4 |= ((uint64(bb[0]) - t4) >> 63) << (pos + 8)
			a8 |= ((uint64(bb[0]) - t8) >> 63) << (pos + 8)
			a4 |= ((uint64(bb[1]) - t4) >> 63) << (pos + 10)
			a8 |= ((uint64(bb[1]) - t8) >> 63) << (pos + 10)
			a4 |= ((uint64(bb[2]) - t4) >> 63) << (pos + 12)
			a8 |= ((uint64(bb[2]) - t8) >> 63) << (pos + 12)
			a4 |= ((uint64(bb[3]) - t4) >> 63) << (pos + 14)
			a8 |= ((uint64(bb[3]) - t8) >> 63) << (pos + 14)
		}
		row[w] = cur ^ (Flips(d1, d2, d3, d4, a4, a8) & cmask)
	}
}
