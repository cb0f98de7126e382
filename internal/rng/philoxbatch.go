package rng

// Batched Philox4x32-10 evaluation. The hot loops of the bit-packed engines
// consume long runs of blocks whose counters (multispin: one row of sites) or
// keys (ensemble: one site across all lanes) are known up front. Generating
// the whole run into a caller-owned scratch buffer amortises the per-block
// setup, lets four independent round chains overlap in the multiplier
// pipeline in portable Go, and on amd64 CPUs with AVX2 (see
// philox_avx2_amd64.s; a CPUID check at start-up picks the path) computes
// eight blocks per vector iteration. Every path writes exactly the words
// Block would: the batch layer is an execution strategy, never a stream
// change, which is what keeps every engine variant bit-identical to the
// scalar reference.

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

// HasAVX2 reports whether this binary runs the AVX2 batch kernels: built for
// amd64 AND running on a CPU with OS-enabled AVX2. The isingbench report and
// isingd's build-info metric record it, so a perf row always names the
// kernel variant it measured.
func HasAVX2() bool { return useAVX2 }
