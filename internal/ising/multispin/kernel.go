package multispin

import (
	"math"

	"tpuising/internal/ising"
	"tpuising/internal/rng"
)

// Kernel is the reusable core of the bit-packed Metropolis update: the two
// integer acceptance thresholds and the Philox key.
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

// Scratch is the reusable draw buffer of the optimized row kernel. Engines
// keep one per worker goroutine and pass it to every UpdateRows or
// UpdateRowScratch call; the zero value is ready to use and grows on first
// use. It carries no kernel state — only scratch memory — so any kernel may
// use any scratch.
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

// RowSource hands the rows of a run to UpdateRows in order: each NextRow
// returns the next row's words, its north and south neighbour rows and its
// wrap words, as UpdateRow takes them. The pod driver's sharded.RowRun is
// one.
type RowSource interface {
	NextRow() (row, north, south []uint64, westWrap, eastWrap uint64)
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
// UpdateRow is the convenience form that brings its own scratch; the
// engines' hot loops call UpdateRows with a persistent per-worker Scratch
// instead, and UpdateRowScratch is its one-row case. All three run the
// optimized kernel — fused Philox accept draws, tiled column blocking,
// hoisted word-boundary handling — and are bit-identical to UpdateRowRef,
// the retained naive reference (pinned by the golden equivalence tests in
// kernel_equiv_test.go).
func (k Kernel) UpdateRow(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64) {
	var sc Scratch
	k.UpdateRowScratch(row, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step, &sc)
}

// UpdateRowScratch is UpdateRow with a caller-owned scratch buffer: the
// one-row case of UpdateRows, running the same word loop.
func (k Kernel) UpdateRowScratch(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64, sc *Scratch) {
	k.updateRow(row, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step, nil, nil, sc)
}

// UpdateRows performs the colour update of n consecutive rows taken in order
// from src, the first at global row globalRow, all of one width and at
// global word wordOff: the form the engines' hot loops use. One fused Philox
// call (rng.AcceptRows — the AVX-512 or AVX2 kernel on an amd64 CPU that has
// them, the 4-way portable loop otherwise) draws the accept masks of as many
// whole rows as fit in tileWords words (64 one-word rows, two 32-word rows),
// compared where the randoms are generated and already on the even columns,
// so the word loop only shifts them onto the active colour. A row wider than
// tileWords draws its own tiles. Drawing before updating is exact because no
// random depends on a spin. One word loop then runs the inlined updateWord
// over each row's slices, with the wrap/select branches hoisted into
// explicit first/middle/last word handling.
//
// Within one colour update the kernel writes only active-colour bits and
// consumes only inactive-colour neighbour bits, so the west bit a word
// consumes (bit 63 of the word before it, an odd-parity column) is the same
// before and after that word's update: it is consumed only by even-parity
// updates and written only by odd-parity ones. That is what lets the loop
// roll the west neighbour through a local holding the pre-update word, so
// no word waits for the previous word's update, and it is the same
// invariant that makes the engines' pre-update halo snapshots exact.
func (k Kernel) UpdateRows(src RowSource, n, globalRow, wordOff, parity int, step uint64, sc *Scratch) {
	for r := 0; r < n; {
		row, north, south, westWrap, eastWrap := src.NextRow()
		W := len(row)
		run := 1
		var a4s, a8s []uint64 // the run's masks, row after row; nil: each row draws its own
		if W > 0 && W <= tileWords {
			run = min(n-r, tileWords/W)
			a4s, a8s = sc.masks(run * W)
			rng.AcceptRows(a4s, a8s, W, rng.Counter{uint32(step), uint32(step >> 32), uint32(int64(globalRow + r)), uint32(wordOff * 8)},
				k.Key, k.T4, k.T8)
		}
		for i := 0; ; i++ {
			k.updateRow(row, north, south, westWrap, eastWrap, globalRow+r, wordOff, parity, step, a4s[i*W:], a8s[i*W:], sc)
			if r++; i+1 == run {
				break
			}
			row, north, south, westWrap, eastWrap = src.NextRow()
		}
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
			a4, a8 = k.drawTile(n, globalRow, wordOff+w0, step, sc)
		}
		a4, a8 = a4[:n], a8[:n]
		// Hoisted boundary handling: the west neighbour rolls through a
		// local (see UpdateRows), the east select happens once, for the
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

// drawTile draws the masks of one row's n-word tile starting at global word
// gw: 8 blocks per word at consecutive counters starting at gw*8, matching
// the reference's per-word counters exactly (mod-2^32 arithmetic included),
// so every accept decision is the reference's.
func (k Kernel) drawTile(n, globalRow, gw int, step uint64, sc *Scratch) (a4s, a8s []uint64) {
	a4s, a8s = sc.masks(n)
	rng.AcceptRows(a4s, a8s, n, rng.Counter{uint32(step), uint32(step >> 32), uint32(int64(globalRow)), uint32(gw * 8)},
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
