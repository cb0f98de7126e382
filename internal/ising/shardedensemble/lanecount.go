package shardedensemble

import "math/bits"

// Block lengths of laneCounter. A block's seven register planes hold a
// count of up to 127 per lane, so a block takes 127 words of one bit per
// lane (magnetisation) or 63 sites of two bond bits per lane (energy).
const (
	onesBlock = 1<<7 - 1
	bondBlock = onesBlock / 2
)

// laneCounter counts bits per lane over a pass of lane-packed words, bit
// sliced as in multi-spin coding: plane k holds bit k of all 64 lanes'
// counts, so adding words is a few ANDs and XORs through the planes rather
// than a loop over their set bits. Words go into the open block's planes
// p0..p6, held in registers, four one-bit words per step: two full adders
// into plane 0, one full adder for their carries into plane 1, and a ripple
// through planes 2..6. A full block is added into the wide planes, and
// counts reads the per-lane totals out of those once per pass. Lanes never
// carry into each other, so a padding lane's bits only ever reach its own
// count, which counts masks off.
type laneCounter struct {
	p    [7]uint64  // open block, plane k = bit k of the lanes' block counts
	fill int        // words or sites added to the open block
	wide [64]uint64 // closed blocks, plane k = bit k of the lanes' counts
}

// addOnes adds every set bit of words to its lane's count, four words per
// step.
func (c *laneCounter) addOnes(words []uint64) {
	for len(words) > 0 {
		n := min(len(words), onesBlock-c.fill)
		ws := words[:n]
		p0, p1, p2, p3, p4, p5, p6 := c.p[0], c.p[1], c.p[2], c.p[3], c.p[4], c.p[5], c.p[6]
		var k1, k2, k uint64
		for ; len(ws) >= 4; ws = ws[4:] {
			p0, k1 = fullAdd(p0, ws[0], ws[1])
			p0, k2 = fullAdd(p0, ws[2], ws[3])
			p1, k = fullAdd(p1, k1, k2)
			p2, p3, p4, p5, p6 = ripple(p2, p3, p4, p5, p6, k)
		}
		for _, w := range ws {
			p0, k1 = p0^w, p0&w
			p1, k = p1^k1, p1&k1
			p2, p3, p4, p5, p6 = ripple(p2, p3, p4, p5, p6, k)
		}
		c.p = [7]uint64{p0, p1, p2, p3, p4, p5, p6}
		words = words[n:]
		if c.fill += n; c.fill == onesBlock {
			c.flush()
		}
	}
}

// addBonds adds, for every site of row, the disagreements with its east
// neighbour (the next word, eastWord after the last) and its south
// neighbour, two sites (four bond words) per step.
func (c *laneCounter) addBonds(row, south []uint64, eastWord uint64) {
	south = south[:len(row)]
	for i := 0; i < len(row); {
		end := i + min(len(row)-i, bondBlock-c.fill)
		c.fill += end - i
		p0, p1, p2, p3, p4, p5, p6 := c.p[0], c.p[1], c.p[2], c.p[3], c.p[4], c.p[5], c.p[6]
		var k1, k2, k uint64
		for ; i+2 < len(row) && i+2 <= end; i += 2 {
			v, w, east := row[i], row[i+1], row[i+2]
			p0, k1 = fullAdd(p0, v^w, v^south[i])
			p0, k2 = fullAdd(p0, w^east, w^south[i+1])
			p1, k = fullAdd(p1, k1, k2)
			p2, p3, p4, p5, p6 = ripple(p2, p3, p4, p5, p6, k)
		}
		for ; i < end; i++ {
			v, east := row[i], eastWord
			if i+1 < len(row) {
				east = row[i+1]
			}
			p0, k1 = fullAdd(p0, v^east, v^south[i])
			p1, k = p1^k1, p1&k1
			p2, p3, p4, p5, p6 = ripple(p2, p3, p4, p5, p6, k)
		}
		c.p = [7]uint64{p0, p1, p2, p3, p4, p5, p6}
		if c.fill == bondBlock {
			c.flush()
		}
	}
}

// fullAdd returns the sum bit and the carry of p + a + b, lane by lane.
func fullAdd(p, a, b uint64) (sum, carry uint64) {
	s := p ^ a
	return s ^ b, p&a | s&b
}

// ripple adds the one-bit-per-lane carry k into planes p2..p6. A block
// never exceeds 127, so nothing carries out of p6.
func ripple(p2, p3, p4, p5, p6, k uint64) (uint64, uint64, uint64, uint64, uint64) {
	p2, k = p2^k, p2&k
	p3, k = p3^k, p3&k
	p4, k = p4^k, p4&k
	p5, k = p5^k, p5&k
	return p2, p3, p4, p5, p6 ^ k
}

// flush adds the open block into the wide planes and empties it.
func (c *laneCounter) flush() {
	var k uint64
	for i, p := range c.p {
		w := c.wide[i]
		s := w ^ p
		c.wide[i], k = s^k, w&p|s&k
	}
	for i := len(c.p); k != 0; i++ {
		c.wide[i], k = c.wide[i]^k, c.wide[i]&k
	}
	c.p, c.fill = [7]uint64{}, 0
}

// counts ends the pass: it returns the count of every lane selected by
// mask and resets the counter for the next pass.
func (c *laneCounter) counts(mask uint64) (n [MaxLanes]int64) {
	c.flush()
	for k, w := range c.wide {
		for w &= mask; w != 0; w &= w - 1 {
			n[bits.TrailingZeros64(w)] += 1 << k
		}
	}
	*c = laneCounter{}
	return n
}
