package rng

// Batched Philox4x32-10 evaluation. The hot loops of the bit-packed engines
// consume long runs of blocks whose counters (multispin: one row of sites) or
// keys (ensemble: one site across all lanes) are known up front. Generating
// the whole run at once amortises the per-block setup, lets four independent
// round chains overlap in the multiplier pipeline in portable Go, and on
// amd64 computes sixteen blocks per vector state with AVX-512 (the accept
// kernels, philox_avx512_amd64.s) or eight with AVX2 (philox_avx2_amd64.s);
// a CPUID check at start-up picks the widest path the CPU and OS allow.
//
// Two forms share each draw pattern. BlockRow and BlockLanes return the raw
// stream: they write exactly the words Block would. AcceptRows and
// AcceptLanes return what a Metropolis row kernel consumes: one accept bit
// per draw, u < t4 and u < t8, compared in vector registers where the block
// is generated instead of staged through memory. The portable definition of
// each accept kernel is its raw kernel followed by the compare, so both
// forms read one stream, and every path is an execution strategy, never a
// stream change. That is what keeps every engine variant bit-identical to
// the scalar reference.

// BlockRow fills dst with n = len(dst)/4 consecutive Philox blocks under one
// key: dst[4i:4i+4] = Block({ctr[0], ctr[1], ctr[2], ctr[3]+i}, key) for
// i in 0..n-1, with the ctr[3] addition wrapping mod 2^32 and never carrying
// into ctr[2] — exactly the counter arithmetic of the multispin row kernel,
// which advances only the low counter word along a row. len(dst) must be a
// multiple of 4.
func BlockRow(dst []uint32, ctr Counter, key Key) {
	if len(dst)%4 != 0 {
		panic("rng: BlockRow needs len(dst) % 4 == 0")
	}
	n := len(dst) / 4
	i := 0
	if useAVX2 && n >= 8 {
		m := n &^ 7
		blockRowAVX2(&dst[0], uint64(m), ctr, key)
		i = m
	}
	blockRowGeneric(dst, ctr, key, i, n)
}

// blockRowGeneric is the portable BlockRow tail/fallback for blocks [i, n):
// four independent counter chains are advanced per iteration so their
// multiplies overlap in the pipeline (the 4-way widening of BlockPair's
// 2-way interleave).
func blockRowGeneric(dst []uint32, ctr Counter, key Key, i, n int) {
	c0, c1, c2 := ctr[0], ctr[1], ctr[2]
	for ; i+4 <= n; i += 4 {
		c3 := ctr[3] + uint32(i)
		a0, a1, a2, a3 := c0, c1, c2, c3
		b0, b1, b2, b3 := c0, c1, c2, c3+1
		e0, e1, e2, e3 := c0, c1, c2, c3+2
		f0, f1, f2, f3 := c0, c1, c2, c3+3
		k0, k1 := key[0], key[1]
		for r := 0; r < rounds; r++ {
			pa0 := uint64(philoxM0) * uint64(a0)
			pa1 := uint64(philoxM1) * uint64(a2)
			pb0 := uint64(philoxM0) * uint64(b0)
			pb1 := uint64(philoxM1) * uint64(b2)
			pe0 := uint64(philoxM0) * uint64(e0)
			pe1 := uint64(philoxM1) * uint64(e2)
			pf0 := uint64(philoxM0) * uint64(f0)
			pf1 := uint64(philoxM1) * uint64(f2)
			a0, a1, a2, a3 = uint32(pa1>>32)^a1^k0, uint32(pa1), uint32(pa0>>32)^a3^k1, uint32(pa0)
			b0, b1, b2, b3 = uint32(pb1>>32)^b1^k0, uint32(pb1), uint32(pb0>>32)^b3^k1, uint32(pb0)
			e0, e1, e2, e3 = uint32(pe1>>32)^e1^k0, uint32(pe1), uint32(pe0>>32)^e3^k1, uint32(pe0)
			f0, f1, f2, f3 = uint32(pf1>>32)^f1^k0, uint32(pf1), uint32(pf0>>32)^f3^k1, uint32(pf0)
			k0 += philoxW0
			k1 += philoxW1
		}
		o := dst[4*i : 4*i+16 : 4*i+16]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
		o[4], o[5], o[6], o[7] = b0, b1, b2, b3
		o[8], o[9], o[10], o[11] = e0, e1, e2, e3
		o[12], o[13], o[14], o[15] = f0, f1, f2, f3
	}
	for ; i < n; i++ {
		b := Block(Counter{c0, c1, c2, ctr[3] + uint32(i)}, key)
		copy(dst[4*i:4*i+4], b[:])
	}
}

// BlockLanes fills dst with one Philox block per lane key, all under the same
// counter: dst[4l:4l+4] = Block(ctr, Key{k0s[l], k1s[l]}) for l in
// 0..len(k0s)-1 — the draw pattern of the lane-packed ensemble engine, where
// 64 replicas share every site counter but each has its own lane-seeded key.
// len(k1s) must equal len(k0s) and len(dst) must be 4*len(k0s).
func BlockLanes(dst []uint32, ctr Counter, k0s, k1s []uint32) {
	if len(k0s) != len(k1s) || len(dst) != 4*len(k0s) {
		panic("rng: BlockLanes needs len(k0s) == len(k1s) and len(dst) == 4*len(k0s)")
	}
	n := len(k0s)
	i := 0
	if useAVX2 && n >= 8 {
		m := n &^ 7
		blockLanesAVX2(&dst[0], uint64(m), ctr, &k0s[0], &k1s[0])
		i = m
	}
	blockLanesGeneric(dst, ctr, k0s, k1s, i, n)
}

// blockLanesGeneric is the portable BlockLanes tail/fallback for lanes [i, n),
// four independent key chains per iteration.
func blockLanesGeneric(dst []uint32, ctr Counter, k0s, k1s []uint32, i, n int) {
	c0, c1, c2, c3 := ctr[0], ctr[1], ctr[2], ctr[3]
	for ; i+4 <= n; i += 4 {
		a0, a1, a2, a3 := c0, c1, c2, c3
		b0, b1, b2, b3 := c0, c1, c2, c3
		e0, e1, e2, e3 := c0, c1, c2, c3
		f0, f1, f2, f3 := c0, c1, c2, c3
		ka0, ka1 := k0s[i], k1s[i]
		kb0, kb1 := k0s[i+1], k1s[i+1]
		ke0, ke1 := k0s[i+2], k1s[i+2]
		kf0, kf1 := k0s[i+3], k1s[i+3]
		for r := 0; r < rounds; r++ {
			pa0 := uint64(philoxM0) * uint64(a0)
			pa1 := uint64(philoxM1) * uint64(a2)
			pb0 := uint64(philoxM0) * uint64(b0)
			pb1 := uint64(philoxM1) * uint64(b2)
			pe0 := uint64(philoxM0) * uint64(e0)
			pe1 := uint64(philoxM1) * uint64(e2)
			pf0 := uint64(philoxM0) * uint64(f0)
			pf1 := uint64(philoxM1) * uint64(f2)
			a0, a1, a2, a3 = uint32(pa1>>32)^a1^ka0, uint32(pa1), uint32(pa0>>32)^a3^ka1, uint32(pa0)
			b0, b1, b2, b3 = uint32(pb1>>32)^b1^kb0, uint32(pb1), uint32(pb0>>32)^b3^kb1, uint32(pb0)
			e0, e1, e2, e3 = uint32(pe1>>32)^e1^ke0, uint32(pe1), uint32(pe0>>32)^e3^ke1, uint32(pe0)
			f0, f1, f2, f3 = uint32(pf1>>32)^f1^kf0, uint32(pf1), uint32(pf0>>32)^f3^kf1, uint32(pf0)
			ka0 += philoxW0
			ka1 += philoxW1
			kb0 += philoxW0
			kb1 += philoxW1
			ke0 += philoxW0
			ke1 += philoxW1
			kf0 += philoxW0
			kf1 += philoxW1
		}
		o := dst[4*i : 4*i+16 : 4*i+16]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
		o[4], o[5], o[6], o[7] = b0, b1, b2, b3
		o[8], o[9], o[10], o[11] = e0, e1, e2, e3
		o[12], o[13], o[14], o[15] = f0, f1, f2, f3
	}
	for ; i < n; i++ {
		b := Block(ctr, Key{k0s[i], k1s[i]})
		copy(dst[4*i:4*i+4], b[:])
	}
}

// AcceptRows draws the per-site randoms of a run of consecutive rows of
// rowWords 64-column words each (the multispin draw pattern: word w of row
// i reads the eight blocks at counters {ctr[0], ctr[1], ctr[2]+i,
// ctr[3]+8w .. ctr[3]+8w+7}, with the mod-2^32 arithmetic of BlockRow in
// both moving words and no carry between them) and returns them as
// word-aligned accept masks, row after row: bit 2j of a4[i*rowWords+w]
// (a8) is set when random j of that word, component j&3 of its block j>>2,
// is below t4 (t8), and every odd bit is zero. Same-colour ordinal j is
// column 2j+p of a row whose active colour has column parity p, so the row
// kernel consumes a mask as a4[k]<<p. A threshold of 0 accepts nothing and
// one of 2^32 or more (up to 2^63) accepts everything. len(a8) must equal
// len(a4), which must be a multiple of rowWords (> 0); a one-row run is a
// single row of len(a4) words.
//
// The vector kernels run the whole call as one stream of eight-block words
// whatever the row width, so a run of narrow rows fills the same
// interleaved states as one long row: only each state's counter vectors
// follow the (row, column) walk.
func AcceptRows(a4, a8 []uint64, rowWords int, ctr Counter, key Key, t4, t8 uint64) {
	if len(a4) != len(a8) || rowWords <= 0 || len(a4)%rowWords != 0 {
		panic("rng: AcceptRows needs len(a4) == len(a8), a multiple of rowWords > 0")
	}
	if len(a4) == 0 {
		return
	}
	switch {
	case useAVX512:
		acceptRowsAVX512(&a4[0], &a8[0], uint64(len(a4)), uint64(rowWords), ctr, key, t4, t8)
	case useAVX2:
		acceptRowsAVX2(&a4[0], &a8[0], uint64(len(a4)), uint64(rowWords), ctr, key, t4, t8)
	default:
		acceptRowsGeneric(a4, a8, rowWords, ctr, key, t4, t8)
	}
}

// acceptRowsGeneric is the portable AcceptRows: blockRowGeneric one word at
// a time, then the compare, each bit placed at 2j.
func acceptRowsGeneric(a4, a8 []uint64, rowWords int, ctr Counter, key Key, t4, t8 uint64) {
	var blk [32]uint32
	for k := range a4 {
		i, w := k/rowWords, k%rowWords
		blockRowGeneric(blk[:], Counter{ctr[0], ctr[1], ctr[2] + uint32(i), ctr[3] + uint32(8*w)}, key, 0, 8)
		var m4, m8 uint64
		for j, u := range blk {
			m4 |= ((uint64(u) - t4) >> 63) << uint(2*j)
			m8 |= ((uint64(u) - t8) >> 63) << uint(2*j)
		}
		a4[k], a8[k] = m4, m8
	}
}

// AcceptLanes draws one block per lane under a shared counter (the
// BlockLanes pattern) and returns lane masks: bit l of a4[c] (a8[c]) is set
// when component c of Block(ctr, Key{k0s[l], k1s[l]}) is below t4s[l]
// (t8s[l]), with the thresholds of AcceptRows. All four slices must have the
// same length, at most 64.
func AcceptLanes(a4, a8 *[4]uint64, ctr Counter, k0s, k1s []uint32, t4s, t8s []uint64) {
	n := len(k0s)
	if len(k1s) != n || len(t4s) != n || len(t8s) != n || n > 64 {
		panic("rng: AcceptLanes needs equal-length key and threshold slices of at most 64 lanes")
	}
	*a4, *a8 = [4]uint64{}, [4]uint64{}
	i := 0
	if m := n &^ 7; m > 0 && useAVX2 {
		if useAVX512 {
			acceptLanesAVX512(a4, a8, uint64(m), ctr, &k0s[0], &k1s[0], &t4s[0], &t8s[0])
		} else {
			acceptLanesAVX2(a4, a8, uint64(m), ctr, &k0s[0], &k1s[0], &t4s[0], &t8s[0])
		}
		i = m
	}
	if i < n {
		acceptLanesGeneric(a4, a8, ctr, k0s, k1s, t4s, t8s, i, n)
	}
}

// LaneGroup returns the lane count AcceptLanes draws per vector state: 16
// where it runs the AVX-512 kernel, 8 where it runs the AVX2 one and 1 on the
// portable loop. A call whose lane count is a multiple of it runs only whole
// vector states: no half-filled state and no portable tail.
func LaneGroup() int {
	switch {
	case useAVX512:
		return 16
	case useAVX2:
		return 8
	}
	return 1
}

// acceptLanesGeneric is the portable AcceptLanes for lanes [i, n):
// blockLanesGeneric eight lanes at a time, then the compare, OR'ed into
// a4/a8.
func acceptLanesGeneric(a4, a8 *[4]uint64, ctr Counter, k0s, k1s []uint32, t4s, t8s []uint64, i, n int) {
	var blk [32]uint32
	for ; i < n; i += 8 {
		m := min(8, n-i)
		blockLanesGeneric(blk[:4*m], ctr, k0s[i:i+m], k1s[i:i+m], 0, m)
		for l := 0; l < m; l++ {
			t4, t8 := t4s[i+l], t8s[i+l]
			bit := uint(i + l)
			for c, u := range blk[4*l : 4*l+4] {
				a4[c] |= ((uint64(u) - t4) >> 63) << bit
				a8[c] |= ((uint64(u) - t8) >> 63) << bit
			}
		}
	}
}

// HasAVX2 reports whether this binary runs the AVX2 batch kernels: built for
// amd64 AND running on a CPU with OS-enabled AVX2. The isingbench report and
// isingd's build-info metric record it, so a perf row always names the
// kernel variant it measured. On an AVX-512 host it stays true: BlockRow and
// BlockLanes run the AVX2 kernels there.
func HasAVX2() bool { return useAVX2 }

// HasAVX512 reports whether AcceptRows and AcceptLanes run the AVX-512
// kernels: built for amd64 AND running on a CPU with OS-enabled AVX-512F,
// AVX-512VL and BMI2. isingd's build-info metric and serving log line
// record it beside HasAVX2.
func HasAVX512() bool { return useAVX512 }
