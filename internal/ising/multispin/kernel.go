package multispin

import (
	"math"

	"tpuising/internal/ising"
	"tpuising/internal/rng"
)

// Kernel is the reusable core of the bit-packed Metropolis update: the two
// integer acceptance thresholds, the Philox key and the random-sharing mode.
// It is deliberately free of any lattice geometry — UpdateRow is handed the
// packed words of one row plus its neighbours and the row's *global*
// coordinates, so the single core and every shard of a pod grid
// (internal/ising/sharded) evaluate exactly the same pure function of
// (seed, step, global site) and stay bit-identical to each other.
type Kernel struct {
	// T4 and T8 are the 33-bit integer acceptance thresholds for one and zero
	// disagreeing neighbours (see acceptThreshold).
	T4, T8 uint64
	// Key is the site-keyed Philox key derived from the seed.
	Key rng.Key
	// Shared selects one random per 64-column word instead of one per site.
	Shared bool
}

// NewKernel derives the kernel of a temperature/seed pair. The key derivation
// matches rng.NewSiteKeyed, making the kernel one more member of the
// repository's site-keyed family.
func NewKernel(temperature float64, seed uint64, shared bool) Kernel {
	k := Kernel{
		Key:    rng.Key{uint32(seed), uint32(seed>>32) ^ 0x1BD11BDA},
		Shared: shared,
	}
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
// leaving the key and the sharing mode untouched.
func (k *Kernel) SetTemperature(temperature float64) {
	k.SetThresholds(ThresholdsFor(temperature))
}

// SetThresholds installs a precomputed acceptance pair (see ThresholdCache).
func (k *Kernel) SetThresholds(th Thresholds) {
	k.T4, k.T8 = th.T4, th.T8
}

// DisagreeClasses bit-slices the four neighbour-disagreement masks of 64
// sites (or, in the lane-packed ensemble engine, of 64 independent chains at
// one site) into the three Metropolis acceptance classes: ge2 marks sites
// with >= 2 disagreeing neighbours (always accept), one marks exactly one
// (accept with probability exp(-4 beta)) and zero marks none (accept with
// probability exp(-8 beta)). It is the shared core of every bit-packed
// engine's hot loop — this package's row kernel on every shard grid (the
// single core included) and internal/ising/ensemble's lane kernel both
// classify through it.
func DisagreeClasses(d1, d2, d3, d4 uint64) (ge2, one, zero uint64) {
	// Bit-sliced sum of the four d-bits into a 3-bit count per site.
	h0, c0 := d1^d2, d1&d2
	h1, c1 := d3^d4, d3&d4
	low := h0 ^ h1
	ca := h0 & h1
	mid := c0 ^ c1 ^ ca
	hi := (c0 & c1) | (ca & (c0 ^ c1))
	ge2 = mid | hi
	one = low &^ mid &^ hi
	zero = ^(low | mid | hi)
	return ge2, one, zero
}

// tileWords is the column-blocking width of the optimized row kernel: accept
// masks (per-site mode) or randoms (shared mode) are drawn tileWords words at
// a time, so the scratch holds at most tileWords*4 uint32s (1 KiB).
const tileWords = 64

// Scratch is the reusable draw buffer of the optimized row kernel. Engines
// keep one per worker goroutine and pass it to every UpdateRowScratch call;
// the zero value is ready to use and grows on first use. It carries no
// kernel state — only scratch memory — so any kernel may use any scratch.
type Scratch struct {
	buf32 []uint32
}

// buf returns an n-word view of the scratch, growing it if needed.
func (s *Scratch) buf(n int) []uint32 {
	if cap(s.buf32) < n {
		s.buf32 = make([]uint32, n)
	}
	return s.buf32[:n]
}

// UpdateRow performs the colour update of the active sites of one packed
// lattice row, in place. row holds the W words of the row; north and south
// are the rows above and below (pre-update snapshots are fine: every
// neighbour bit consumed belongs to the opposite colour, which this update
// does not write). westWrap is the word logically west of row[0] (only its
// bit 63 is consumed) and eastWrap the word logically east of row[W-1] (only
// its bit 0 is consumed); the single core passes the row's own end words for
// the torus wrap, a shard of a larger grid passes its neighbour's halo.
//
// globalRow and wordOff are the row's global row index and the global word
// index of row[0]: they key the site randoms and select the active-colour
// parity, so a shard updating a window of a larger lattice draws exactly the
// randoms the single core would.
//
// UpdateRow is the convenience form that brings its own scratch; the engines'
// hot loops call UpdateRowScratch with a persistent per-worker Scratch
// instead. Both run the optimized kernel — fused Philox accept draws, tiled
// column blocking, hoisted word-boundary handling — and are bit-identical to
// UpdateRowRef, the retained naive reference (pinned by the golden
// equivalence tests in kernel_equiv_test.go).
func (k Kernel) UpdateRow(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64) {
	var sc Scratch
	k.UpdateRowScratch(row, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step, &sc)
}

// UpdateRowScratch is UpdateRow with a caller-owned scratch buffer, the form
// the engines' hot loops use. In per-site mode one fused Philox call per tile
// (rng.AcceptRow — the AVX-512 or AVX2 kernel on an amd64 CPU that has
// them, the 4-way portable loop otherwise) returns each word's 32 accept decisions as two
// compact masks, compared where the randoms are generated; shared mode draws
// its one random per word with rng.BlockRow. The word loop then consumes the
// masks with the wrap/select branches hoisted into explicit first/middle/last
// word handling.
//
// Within one colour update the kernel writes only active-colour bits and
// consumes only inactive-colour neighbour bits, so the word loop may read
// row[w-1] after updating it: the one west bit it consumes (bit 63, an
// odd-parity column) is consumed only by even-parity updates and written only
// by odd-parity ones. That is what lets the loop roll the west neighbour
// through a local instead of re-selecting westWrap/row[w-1] per word, and it
// is the same invariant that makes the engines' pre-update halo snapshots
// exact.
func (k Kernel) UpdateRowScratch(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64, sc *Scratch) {
	W := len(row)
	if W == 0 {
		return
	}
	s0, s1 := uint32(step), uint32(step>>32)
	rr := uint32(int64(globalRow))
	p := uint((parity + globalRow) & 1)
	cmask := uint64(evenMask)
	if p == 1 {
		cmask = ^cmask
	}
	t4, t8 := k.T4, k.T8
	for w0 := 0; w0 < W; w0 += tileWords {
		w1 := min(w0+tileWords, W)
		n := w1 - w0
		// Draw the tile: per-site mode consumes 8 blocks per word at
		// consecutive counters starting at (wordOff+w0)*8, shared mode one
		// block per word starting at wordOff+w0. Both match the reference's
		// per-word counters exactly (mod-2^32 arithmetic included), so every
		// accept decision is the reference's.
		var rnd, a4s, a8s []uint32
		if k.Shared {
			rnd = sc.buf(tileWords * 4)[:n*4]
			rng.BlockRow(rnd, rng.Counter{s0, s1, rr, uint32(wordOff + w0)}, k.Key)
		} else {
			acc := sc.buf(2 * tileWords)
			a4s, a8s = acc[:n], acc[tileWords:tileWords+n]
			rng.AcceptRow(a4s, a8s, rng.Counter{s0, s1, rr, uint32((wordOff + w0) * 8)}, k.Key, t4, t8)
		}
		// Hoisted boundary handling: the west neighbour rolls through a
		// local (see above), the east select happens once, for the tile's
		// last word, instead of once per word.
		westSrc := westWrap
		if w0 > 0 {
			westSrc = row[w0-1]
		}
		last := w1 - 1
		eastSrc := eastWrap
		if w1 < W {
			eastSrc = row[w1]
		}
		if k.Shared {
			for w := w0; w < last; w++ {
				a4, a8 := sharedAccept(rnd[(w-w0)*4], t4, t8)
				row[w] = updateWord(row[w], north[w], south[w], row[w+1], westSrc, a4, a8, cmask)
				westSrc = row[w]
			}
			a4, a8 := sharedAccept(rnd[(last-w0)*4], t4, t8)
			row[last] = updateWord(row[last], north[last], south[last], eastSrc, westSrc, a4, a8, cmask)
		} else {
			for w := w0; w < last; w++ {
				row[w] = updateWord(row[w], north[w], south[w], row[w+1], westSrc,
					spreadEven(a4s[w-w0])<<p, spreadEven(a8s[w-w0])<<p, cmask)
				westSrc = row[w]
			}
			row[last] = updateWord(row[last], north[last], south[last], eastSrc, westSrc,
				spreadEven(a4s[last-w0])<<p, spreadEven(a8s[last-w0])<<p, cmask)
		}
	}
}

// updateWord applies one colour update to a 64-column word: a site of the
// active colour (cmask) flips when it has >= 2 disagreeing neighbours, or
// one and its a4 bit is set, or none and its a8 bit is set.
func updateWord(cur, north, south, eastSrc, westSrc, a4, a8, cmask uint64) uint64 {
	east := (cur >> 1) | (eastSrc << 63)
	west := (cur << 1) | (westSrc >> 63)
	ge2, one, zero := DisagreeClasses(cur^north, cur^south, cur^east, cur^west)
	return cur ^ ((ge2 | one&a4 | zero&a8) & cmask)
}

// spreadEven moves bit j of m to bit 2j (a 5-step Morton spread): the
// per-site accept mask of rng.AcceptRow, indexed by same-colour ordinal j,
// onto the word's even columns; the caller shifts it onto the active colour.
func spreadEven(m uint32) uint64 {
	x := uint64(m)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// sharedAccept turns shared mode's one random per word into whole-word
// accept masks.
func sharedAccept(u uint32, t4, t8 uint64) (a4, a8 uint64) {
	return ^uint64(0) * ((uint64(u) - t4) >> 63), ^uint64(0) * ((uint64(u) - t8) >> 63)
}

// UpdateRowRef is the retained naive reference implementation of UpdateRow:
// word-at-a-time, branching wrap selection, randoms drawn two blocks at a
// time inline. It is never called by the engines — it exists so the golden
// equivalence property test can pin every optimized variant (portable tiled,
// AVX-512 or AVX2 where the CPU has it) to the exact spins this loop produces at any
// (seed, step, geometry).
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
		ge2, one, zero := DisagreeClasses(d1, d2, d3, d4)
		var a4, a8 uint64
		gw := w + wordOff
		if k.Shared {
			// One random shared by the whole word.
			u := uint64(rng.Block(rng.Counter{s0, s1, uint32(int64(globalRow)), uint32(gw)}, k.Key)[0])
			a4 = ^uint64(0) * ((u - t4) >> 63)
			a8 = ^uint64(0) * ((u - t8) >> 63)
		} else {
			// One random per active site: lane j&3 of the Philox block keyed
			// by (step, row, j>>2), where j = column/2 is the site's ordinal
			// among same-colour sites in the row. The word's 32 active sites
			// consume 8 blocks with no waste, generated two at a time so the
			// multiplies of independent blocks overlap in the pipeline.
			base := uint32(gw * 8)
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
		}
		row[w] = cur ^ ((ge2 | (one & a4) | (zero & a8)) & cmask)
	}
}
