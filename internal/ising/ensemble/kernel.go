package ensemble

import (
	"fmt"

	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/rng"
)

// Scratch is the per-worker argument of Kernel.UpdateRow. The fused accept
// kernel (rng.AcceptLanes) returns each group's lane masks in registers, so
// the row update needs no buffer and a Scratch holds nothing; the engines
// pass nil. The type stays only so the benchmark module's kernel timing
// (isingbench/layers.go) builds unchanged.
type Scratch struct{}

// Kernel is the lane-packed row-update kernel of the lane-packed pod engine
// (internal/ising/shardedensemble) on every grid, playing the role
// multispin.Kernel plays for the bit-packed engine: it owns the per-lane keys,
// temperatures and acceptance thresholds (plus their structure-of-arrays
// mirrors feeding the batched rng calls) and updates one row of lane-packed
// words at a time. Callers address rows by *global* coordinates — globalRow
// indexes the site-keyed Philox stream and the checkerboard parity, groupOff
// is the global index of the row slice's first four-site random group — so a
// shard updating its local slice of a larger lattice draws exactly the
// randoms the single core draws for those sites. That identity is what
// makes every lane of a sharded ensemble bit-identical to the same lane of a
// one-shard ensemble (and hence to a standalone multispin chain).
type Kernel struct {
	lanes    int
	laneMask uint64             // bits 0..lanes-1
	kerns    []multispin.Kernel // per-lane key + thresholds
	temps    []float64

	// Structure-of-arrays mirrors of the per-lane kernels, kept in sync by
	// NewKernel and SetLaneTemperature: the hot loop hands the key and
	// threshold arrays straight to rng.AcceptLanes. They are padded to a
	// multiple of rng.LaneGroup, so AcceptLanes runs whole vector states
	// only; a pad lane has threshold 0, accepts nothing, and its bit is
	// outside laneMask anyway.
	t4s, t8s   []uint64
	k0s, k1s   []uint32
	thresholds multispin.ThresholdCache // memoized acceptance pairs per rung
}

// NewKernel builds a kernel for len(temps) lanes: lane L runs at temps[L]
// with its Philox key derived from ising.LaneSeed(seed, L), exactly like a
// standalone multispin chain with that seed. The kernel has no class-shared
// random mode; shared must be false and is kept only so the benchmark
// module's kernel timing (isingbench/layers.go) builds unchanged.
func NewKernel(seed uint64, temps []float64, shared bool) (*Kernel, error) {
	if shared {
		return nil, fmt.Errorf("ensemble: the class-shared random mode was removed; lanes draw per-lane randoms only")
	}
	lanes := len(temps)
	if lanes < 1 || lanes > MaxLanes {
		return nil, fmt.Errorf("ensemble: lanes must be 1..%d, got %d", MaxLanes, lanes)
	}
	g := rng.LaneGroup()
	padded := (lanes + g - 1) / g * g
	k := &Kernel{
		lanes:    lanes,
		laneMask: laneMask(lanes),
		kerns:    make([]multispin.Kernel, lanes),
		temps:    append([]float64(nil), temps...),
		t4s:      make([]uint64, padded),
		t8s:      make([]uint64, padded),
		k0s:      make([]uint32, padded),
		k1s:      make([]uint32, padded),
	}
	for l := range k.kerns {
		if temps[l] <= 0 {
			return nil, fmt.Errorf("ensemble: lane %d temperature %g must be positive", l, temps[l])
		}
		k.kerns[l] = multispin.NewKernel(temps[l], ising.LaneSeed(seed, l), false)
		k.t4s[l], k.t8s[l] = k.kerns[l].T4, k.kerns[l].T8
		k.k0s[l], k.k1s[l] = k.kerns[l].Key[0], k.kerns[l].Key[1]
	}
	return k, nil
}

// Lanes returns the number of packed replicas.
func (k *Kernel) Lanes() int { return k.lanes }

// LaneMask returns the word mask selecting the active lane bits.
func (k *Kernel) LaneMask() uint64 { return k.laneMask }

// LaneTemperature returns one lane's current temperature.
func (k *Kernel) LaneTemperature(lane int) float64 { return k.temps[lane] }

// SetLaneTemperature changes one lane's temperature. The thresholds are
// memoized per rung: the tempering swap loop toggles lanes between the same
// ladder temperatures for the whole run, so after each rung's first visit
// this is a map lookup — no math.Exp on the swap path (pinned by
// BenchmarkSetLaneTemperatureSwap).
func (k *Kernel) SetLaneTemperature(lane int, t float64) {
	if t <= 0 {
		panic("ensemble: temperature must be positive")
	}
	k.setLaneThresholds(lane, k.thresholds.For(t))
	k.temps[lane] = t
}

// setLaneThresholds installs one lane's acceptance pair in its kernel and in
// the SoA mirrors.
func (k *Kernel) setLaneThresholds(lane int, th multispin.Thresholds) {
	k.kerns[lane].SetThresholds(th)
	k.t4s[lane], k.t8s[lane] = th.T4, th.T8
}

// UpdateRow performs the colour update of the active sites of one lane-packed
// row. row, north and south are slices of lane-packed words (one word per
// site); westWord and eastWord are the words the sites just outside the slice
// hold — the caller passes pre-call snapshots of row[len-1] and row[0] for a
// periodic whole row, or the received halo words for a shard slice.
// Both are exact, because east/west neighbours of active sites carry the
// inactive colour and are never written by this update.
//
// Active sites in global row r have column parity p = (parity + r) & 1. The
// site randoms reproduce multispin's mapping exactly: the site with global
// same-colour ordinal j draws component j&3 of the Philox block keyed by
// (step, r, j>>2) under the lane's key. len(row) must be a multiple of 8 so
// four-site random groups never straddle the slice; groupOff is the global
// group index of the slice's first group (global first column / 8).
//
// This is the optimized ΔE-class loop: one rng.AcceptLanes call per
// four-site group draws every lane's block under the SoA key arrays and
// compares it with the lane's thresholds in registers (16 lanes per state
// in the AVX-512 kernel, 8 in the AVX2 one), returning the group's lane masks directly. It
// consumes exactly the blocks the retained reference loop (UpdateRowRef)
// draws inline, and the golden-equivalence test pins the two bit-for-bit. sc
// is unused (see Scratch) and may be nil.
func (k *Kernel) UpdateRow(row, north, south []uint64, westWord, eastWord uint64, globalRow, groupOff, parity int, step uint64, sc *Scratch) {
	p := (parity + globalRow) & 1
	s0, s1 := uint32(step), uint32(step>>32)
	rr := uint32(int64(globalRow))
	groups := len(row) / 8
	var a4, a8 [4]uint64
	for g := 0; g < groups; g++ {
		rng.AcceptLanes(&a4, &a8, rng.Counter{s0, s1, rr, uint32(groupOff + g)}, k.k0s, k.k1s, k.t4s, k.t8s)
		k.applyGroup(row, north, south, westWord, eastWord, g, p, &a4, &a8)
	}
}

// applyGroup flips the four active sites of group g using the accumulated
// per-lane accept masks, substituting the boundary words outside the slice.
func (k *Kernel) applyGroup(row, north, south []uint64, westWord, eastWord uint64, g, p int, a4, a8 *[4]uint64) {
	W := len(row)
	for j := 0; j < 4; j++ {
		c := 2*(4*g+j) + p
		cur := row[c]
		east := eastWord
		if c+1 < W {
			east = row[c+1]
		}
		west := westWord
		if c > 0 {
			west = row[c-1]
		}
		row[c] = cur ^ multispin.Flips(cur^north[c], cur^south[c], cur^east, cur^west, a4[j], a8[j])&k.laneMask
	}
}

// UpdateRowRef is the retained naive reference of UpdateRow — randoms drawn
// two blocks/keys at a time inline, thresholds read through the per-lane
// kernels. It is never called by the engines; the golden-equivalence tests
// pin the optimized loop to it bit-for-bit.
func (k *Kernel) UpdateRowRef(row, north, south []uint64, westWord, eastWord uint64, globalRow, groupOff, parity int, step uint64) {
	p := (parity + globalRow) & 1
	s0, s1 := uint32(step), uint32(step>>32)
	rr := uint32(int64(globalRow))
	groups := len(row) / 8
	var a4, a8 [4]uint64
	for g := 0; g < groups; g++ {
		// Accept masks of the group's four active sites: bit L of a4[j] (a8[j])
		// decides lane L's flip at the j-th site when it has one (zero)
		// disagreeing neighbours. One draw per lane per site, through the
		// lane's own key; two lanes share each interleaved Philox evaluation.
		ctr := rng.Counter{s0, s1, rr, uint32(groupOff + g)}
		for j := 0; j < 4; j++ {
			a4[j], a8[j] = 0, 0
		}
		l := 0
		for ; l+1 < k.lanes; l += 2 {
			ba, bb := rng.BlockPairKeys(ctr, k.kerns[l].Key, k.kerns[l+1].Key)
			t4a, t8a := k.kerns[l].T4, k.kerns[l].T8
			t4b, t8b := k.kerns[l+1].T4, k.kerns[l+1].T8
			for j := 0; j < 4; j++ {
				a4[j] |= ((uint64(ba[j]) - t4a) >> 63) << uint(l)
				a8[j] |= ((uint64(ba[j]) - t8a) >> 63) << uint(l)
				a4[j] |= ((uint64(bb[j]) - t4b) >> 63) << uint(l+1)
				a8[j] |= ((uint64(bb[j]) - t8b) >> 63) << uint(l+1)
			}
		}
		if l < k.lanes {
			blk := rng.Block(ctr, k.kerns[l].Key)
			t4, t8 := k.kerns[l].T4, k.kerns[l].T8
			for j := 0; j < 4; j++ {
				a4[j] |= ((uint64(blk[j]) - t4) >> 63) << uint(l)
				a8[j] |= ((uint64(blk[j]) - t8) >> 63) << uint(l)
			}
		}
		k.applyGroup(row, north, south, westWord, eastWord, g, p, &a4, &a8)
	}
}
