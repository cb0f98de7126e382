package interconnect

import (
	"sync"
	"testing"

	"tpuising/internal/tensor"
)

func TestCoordIDRoundTrip(t *testing.T) {
	m := NewMesh(4, 3)
	if m.NumCores() != 12 {
		t.Fatal("NumCores")
	}
	for id := 0; id < m.NumCores(); id++ {
		x, y := m.Coord(id)
		if m.ID(x, y) != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, m.ID(x, y))
		}
	}
	// Torus wrap.
	if m.ID(-1, 0) != m.ID(3, 0) || m.ID(4, 5) != m.ID(0, 2) {
		t.Error("torus wrap wrong")
	}
}

func TestCoordPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMesh(2, 2).Coord(4)
}

func TestHopsTorusDistance(t *testing.T) {
	m := NewMesh(8, 8)
	if m.Hops(0, 0) != 0 {
		t.Error("self distance")
	}
	if m.Hops(m.ID(0, 0), m.ID(1, 0)) != 1 {
		t.Error("adjacent distance")
	}
	// Wrap-around is shorter than going the long way.
	if m.Hops(m.ID(0, 0), m.ID(7, 0)) != 1 {
		t.Error("wrap distance")
	}
	if m.Hops(m.ID(0, 0), m.ID(4, 4)) != 8 {
		t.Error("max distance on 8x8 torus should be 8")
	}
	// Symmetry.
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if m.Hops(a, b) != m.Hops(b, a) {
				t.Fatal("hops not symmetric")
			}
		}
	}
}

func TestShiftPairs(t *testing.T) {
	m := NewMesh(3, 2)
	pairs := m.ShiftPairs(1, 0)
	if len(pairs) != 6 {
		t.Fatal("pair count")
	}
	srcSeen := map[int]bool{}
	dstSeen := map[int]bool{}
	for _, p := range pairs {
		if srcSeen[p[0]] || dstSeen[p[1]] {
			t.Fatal("shift must be a permutation")
		}
		srcSeen[p[0]] = true
		dstSeen[p[1]] = true
		// Destination is one step east on the torus.
		x, y := m.Coord(p[0])
		if p[1] != m.ID(x+1, y) {
			t.Fatal("wrong destination")
		}
	}
}

func TestPermuteCostModel(t *testing.T) {
	m := NewMesh(16, 16)
	pairs := m.ShiftPairs(0, 1)
	secSmall, hops := m.PermuteCost(pairs, 1<<10)
	if hops != 1 {
		t.Errorf("shift by one should be 1 hop, got %d", hops)
	}
	secBig, _ := m.PermuteCost(pairs, 1<<30)
	if secBig <= secSmall {
		t.Error("more bytes should cost more")
	}
	// Small messages should be latency dominated: per the paper the largest
	// halo (229 KB) takes well under a millisecond.
	sec, _ := m.PermuteCost(pairs, 229376)
	if sec > 1e-3 {
		t.Errorf("halo exchange cost %v s, expected sub-millisecond", sec)
	}
	// Larger meshes have larger synchronisation cost.
	m2 := NewMesh(32, 32)
	sec2, _ := m2.PermuteCost(m2.ShiftPairs(0, 1), 229376)
	if sec2 <= sec {
		t.Error("bigger pod should have larger collective cost")
	}
}

// TestMaxHops: the hop count of a collective is its farthest pair's torus
// distance, wrap-around included, and agrees with PermuteCost's.
func TestMaxHops(t *testing.T) {
	m := NewMesh(8, 4)
	for _, tc := range []struct{ dx, dy, want int }{
		{0, 0, 0}, {1, 0, 1}, {3, 0, 3}, {7, 0, 1}, {-2, 0, 2}, {0, 2, 2}, {0, 3, 1}, {4, 2, 6},
	} {
		pairs := m.ShiftPairs(tc.dx, tc.dy)
		if got := m.MaxHops(pairs); got != tc.want {
			t.Errorf("shift (%d,%d): MaxHops = %d, want %d", tc.dx, tc.dy, got, tc.want)
		}
		if _, hops := m.PermuteCost(pairs, 64); hops != tc.want {
			t.Errorf("shift (%d,%d): PermuteCost hops = %d, want %d", tc.dx, tc.dy, hops, tc.want)
		}
	}
}

func TestFabricCollectivePermuteRing(t *testing.T) {
	// Reproduce Figure 5: three cores in a ring exchange their boundaries.
	m := NewMesh(3, 1)
	f := NewFabric(m)
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	results := make([]*tensor.Tensor, 3)
	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			data := tensor.Full(tensor.Float32, float32(id+1), 2, 2)
			results[id] = f.CollectivePermute(id, data, pairs)
		}(id)
	}
	wg.Wait()
	// Core 1 receives core 0's tensor, core 2 receives core 1's, core 0
	// receives core 2's.
	if results[1].At(0, 0) != 1 || results[2].At(0, 0) != 2 || results[0].At(0, 0) != 3 {
		t.Fatalf("permute results wrong: %v %v %v", results[0].At(0, 0), results[1].At(0, 0), results[2].At(0, 0))
	}
}

func TestFabricCollectivePermuteUntargetedGetsZeros(t *testing.T) {
	m := NewMesh(2, 1)
	f := NewFabric(m)
	// Only core 0 sends, to core 1; core 0 receives nothing.
	pairs := [][2]int{{0, 1}}
	var r0, r1 *tensor.Tensor
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r0 = f.CollectivePermute(0, tensor.Full(tensor.Float32, 5, 2), pairs) }()
	go func() { defer wg.Done(); r1 = f.CollectivePermute(1, tensor.Full(tensor.Float32, 7, 2), pairs) }()
	wg.Wait()
	if r1.At(0) != 5 {
		t.Error("core 1 should receive core 0's data")
	}
	if r0.At(0) != 0 {
		t.Error("untargeted core should receive zeros")
	}
}

func TestFabricPermuteDoesNotAliasSenderData(t *testing.T) {
	m := NewMesh(2, 1)
	f := NewFabric(m)
	pairs := [][2]int{{0, 1}, {1, 0}}
	var r0, r1 *tensor.Tensor
	sent0 := tensor.Full(tensor.Float32, 1, 4)
	sent1 := tensor.Full(tensor.Float32, 2, 4)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r0 = f.CollectivePermute(0, sent0, pairs) }()
	go func() { defer wg.Done(); r1 = f.CollectivePermute(1, sent1, pairs) }()
	wg.Wait()
	// Mutating the sender's tensor afterwards must not change the receiver's
	// copy (the fabric clones on send).
	sent0.Set(99, 0)
	if r1.At(0) != 1 {
		t.Error("received tensor aliases sender storage")
	}
	if r0.At(0) != 2 {
		t.Error("wrong exchange")
	}
}

func TestAllReduceSumAndBarrier(t *testing.T) {
	m := NewMesh(4, 2)
	f := NewFabric(m)
	n := m.NumCores()
	results := make([]float64, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = f.AllReduceSum(id, float64(id))
		}(id)
	}
	wg.Wait()
	want := float64(n*(n-1)) / 2
	for id, r := range results {
		if r != want {
			t.Fatalf("core %d got %v, want %v", id, r, want)
		}
	}
}

func TestAllReduceRepeatedRounds(t *testing.T) {
	// The barrier must be reusable across many rounds without deadlock.
	m := NewMesh(2, 2)
	f := NewFabric(m)
	n := m.NumCores()
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := f.AllReduceSum(id, float64(r))
				if got != float64(r*n) {
					errs <- "wrong sum"
					return
				}
				f.Barrier()
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestNewMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMesh(0, 4)
}

func TestDefaultLinkParamsSane(t *testing.T) {
	l := DefaultLinkParams()
	// The bandwidth is the *effective* small-message edge bandwidth calibrated
	// against the paper's Table 4, well below the raw ICI link rate but still
	// in the multi-GB/s range.
	if l.BandwidthBytesPerSec < 1e9 {
		t.Error("effective edge bandwidth implausibly low")
	}
	if l.SyncLatencySec <= 0 || l.HopLatencySec <= 0 || l.SyncPerSqrtCoreSec <= 0 {
		t.Error("latencies must be positive")
	}
	// The synchronisation overhead must dominate the data term for a typical
	// halo edge (a few hundred kilobytes), which is what the paper observes.
	edgeBytes := 229376.0
	if edgeBytes/l.BandwidthBytesPerSec > l.SyncLatencySec+10*l.SyncPerSqrtCoreSec {
		t.Error("halo exchange should be latency/synchronisation bound, not bandwidth bound")
	}
}
