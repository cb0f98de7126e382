package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBlockDeterministic(t *testing.T) {
	a := Block(Counter{1, 2, 3, 4}, Key{5, 6})
	b := Block(Counter{1, 2, 3, 4}, Key{5, 6})
	if a != b {
		t.Fatal("Block is not deterministic")
	}
	c := Block(Counter{1, 2, 3, 5}, Key{5, 6})
	if a == c {
		t.Fatal("different counters produced identical blocks")
	}
	d := Block(Counter{1, 2, 3, 4}, Key{5, 7})
	if a == d {
		t.Fatal("different keys produced identical blocks")
	}
}

// TestBlockPairMatchesBlock: the interleaved double block must be exactly
// Block applied to each counter -- it is a throughput optimisation, not a
// different generator.
func TestBlockPairMatchesBlock(t *testing.T) {
	f := func(ca, cb Counter, key Key) bool {
		a, b := BlockPair(ca, cb, key)
		return a == Block(ca, key) && b == Block(cb, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockPairKeysMatchesBlock: the dual interleaving (one counter, two
// keys — the lane-packed ensemble's draw pattern) must be exactly Block
// under each key.
func TestBlockPairKeysMatchesBlock(t *testing.T) {
	f := func(ctr Counter, ka, kb Key) bool {
		a, b := BlockPairKeys(ctr, ka, kb)
		return a == Block(ctr, ka) && b == Block(ctr, kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBijectionNoCollisionsSmall(t *testing.T) {
	// The Philox block function is a bijection for a fixed key; sample a few
	// thousand counters and verify no collisions in the outputs.
	seen := make(map[[4]uint32]Counter)
	key := Key{0xDEADBEEF, 0xCAFEBABE}
	for i := uint32(0); i < 4096; i++ {
		ctr := Counter{i, i * 7, i ^ 0x5A5A, 0}
		out := Block(ctr, key)
		if prev, ok := seen[out]; ok && prev != ctr {
			t.Fatalf("collision between counters %v and %v", prev, ctr)
		}
		seen[out] = ctr
	}
}

func TestUniformRange(t *testing.T) {
	p := New(42)
	for i := 0; i < 100000; i++ {
		v := p.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
	for i := 0; i < 10000; i++ {
		v := p.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	p := New(7)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(p.Float32())
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.005 {
		t.Errorf("variance = %v, want ~%v", variance, 1.0/12.0)
	}
}

func TestUniformBucketChiSquare(t *testing.T) {
	p := New(123)
	const n = 100000
	const buckets = 16
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[int(p.Float32()*buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is ~37.7.
	if chi2 > 40 {
		t.Errorf("chi-square %v too large; bucket counts %v", chi2, counts)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewWithStream(9, 0)
	b := NewWithStream(9, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams overlap: %d identical values of 1000", same)
	}
}

func TestSplitIndependentFromParent(t *testing.T) {
	parent := New(11)
	child := parent.Split(3)
	// Parent state must be untouched by Split.
	p2 := New(11)
	for i := 0; i < 100; i++ {
		if parent.Uint32() != p2.Uint32() {
			t.Fatal("Split mutated parent stream")
		}
	}
	// Child differs from a fresh parent stream.
	p3 := New(11)
	diff := false
	for i := 0; i < 32; i++ {
		if child.Uint32() != p3.Uint32() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("child stream identical to parent stream")
	}
}

func TestFillMatchesElementwise(t *testing.T) {
	a := New(99)
	b := New(99)
	buf := make([]float32, 1037) // non multiple of 4
	a.Fill(buf)
	for i, v := range buf {
		if w := b.Float32(); w != v {
			t.Fatalf("Fill[%d] = %v, elementwise = %v", i, v, w)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	p := New(5)
	for n := 1; n < 50; n++ {
		for i := 0; i < 200; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	p.Intn(0)
}

func TestIntnUniform(t *testing.T) {
	p := New(17)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[p.Intn(n)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-draws/n) > 500 {
			t.Errorf("Intn bucket %d count %d deviates", i, c)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	p := New(23)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := p.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestUint32ToUniformProperties(t *testing.T) {
	f := func(u uint32) bool {
		v := Uint32ToUniform(u)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
	if Uint32ToUniform(0) != 0 {
		t.Error("Uint32ToUniform(0) != 0")
	}
	if Uint32ToUniform(math.MaxUint32) >= 1 {
		t.Error("Uint32ToUniform(max) >= 1")
	}
}

func TestUint64(t *testing.T) {
	a := New(31)
	b := New(31)
	for i := 0; i < 100; i++ {
		hi := uint64(b.Uint32())
		lo := uint64(b.Uint32())
		if a.Uint64() != hi<<32|lo {
			t.Fatal("Uint64 does not compose two Uint32 draws")
		}
	}
}

func TestStateCheckpoint(t *testing.T) {
	p := New(77)
	p.Float32()
	ctr, key, idx := p.State()
	if idx < 0 || idx > 4 {
		t.Errorf("idx = %d", idx)
	}
	_ = ctr
	if key != (Key{77, 0}) {
		t.Errorf("key = %v", key)
	}
}

func BenchmarkBlock(b *testing.B) {
	var sink [4]uint32
	for i := 0; i < b.N; i++ {
		sink = Block(Counter{uint32(i), 0, 0, 0}, Key{1, 2})
	}
	_ = sink
}

func BenchmarkFill(b *testing.B) {
	p := New(1)
	buf := make([]float32, 65536)
	b.SetBytes(int64(len(buf) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Fill(buf)
	}
}

// philoxKATs are the Philox4x32-10 known-answer vectors of the Random123
// distribution (Salmon et al., "Parallel random numbers: as easy as 1, 2,
// 3", SC'11): zero counter and key, all-ones counter and key, and the
// digits of pi.
var philoxKATs = []struct {
	ctr  Counter
	key  Key
	want [4]uint32
}{
	{Counter{0, 0, 0, 0}, Key{0, 0},
		[4]uint32{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}},
	{Counter{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff}, Key{0xffffffff, 0xffffffff},
		[4]uint32{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}},
	{Counter{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344}, Key{0xa4093822, 0x299f31d0},
		[4]uint32{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}},
}

// TestPhiloxKnownAnswers pins the generator to the published vectors on
// every dispatch path: Block, and BlockRow/BlockLanes at 8 blocks, the
// width of one AVX2 state, run on the portable loop, the AVX2 kernels and
// the host's dispatch (BlockRow and BlockLanes run the AVX2 kernels on an
// AVX-512 machine too).
// The known answer sits at each of the 8 positions in turn (BlockRow starts
// its counter run p blocks early; BlockLanes gives lane p the known key), so
// every vector lane is pinned, lane 0 included.
func TestPhiloxKnownAnswers(t *testing.T) {
	forEachDispatch(t, testPhiloxKnownAnswers)
}

func testPhiloxKnownAnswers(t *testing.T) {
	const n = 8
	for _, v := range philoxKATs {
		if got := Block(v.ctr, v.key); got != v.want {
			t.Errorf("Block(%08x, %08x) = %08x, want %08x", v.ctr, v.key, got, v.want)
		}
		for p := 0; p < n; p++ {
			row := make([]uint32, 4*n)
			start := v.ctr
			start[3] -= uint32(p)
			BlockRow(row, start, v.key)
			if got := [4]uint32(row[4*p : 4*p+4]); got != v.want {
				t.Errorf("BlockRow(%08x, %08x) block %d = %08x, want %08x", start, v.key, p, got, v.want)
			}

			k0s := make([]uint32, n)
			k1s := make([]uint32, n)
			for l := range k0s {
				k0s[l], k1s[l] = uint32(l)*0x9E3779B9+1, uint32(l)*0xBB67AE85+2
			}
			k0s[p], k1s[p] = v.key[0], v.key[1]
			lanes := make([]uint32, 4*n)
			BlockLanes(lanes, v.ctr, k0s, k1s)
			if got := [4]uint32(lanes[4*p : 4*p+4]); got != v.want {
				t.Errorf("BlockLanes(%08x) lane %d = %08x, want %08x", v.ctr, p, got, v.want)
			}
		}
	}
}
