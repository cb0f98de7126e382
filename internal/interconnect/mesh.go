package interconnect

import (
	"fmt"
	"sync"

	"tpuising/internal/tensor"
)

// LinkParams captures the cost model of the inter-chip network.
type LinkParams struct {
	// BandwidthBytesPerSec is the per-link bandwidth.
	BandwidthBytesPerSec float64
	// HopLatencySec is the per-hop propagation + switching latency.
	HopLatencySec float64
	// SyncLatencySec is the fixed software/synchronisation overhead of one
	// collective operation (all participating cores block until their sends
	// and receives complete).
	SyncLatencySec float64
	// SyncPerSqrtCoreSec models the growth of the lockstep synchronisation
	// cost with the width of the core grid (the paper observes the
	// collective-permute time growing slowly with core count even though the
	// exchanged data is tiny).
	SyncPerSqrtCoreSec float64
}

// DefaultLinkParams returns the TPU v3 pod interconnect parameters used by
// the performance model. They are calibrated against the collective-permute
// times of the paper's Table 4 (see internal/perf): the bandwidth is the
// *effective* small-message bandwidth of one halo edge, well below the raw
// ICI link rate, because the paper observes the exchange time is dominated by
// synchronisation and latency rather than data propagation.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		BandwidthBytesPerSec: 7e9,     // effective small-message edge bandwidth
		HopLatencySec:        1e-6,    // per-hop latency
		SyncLatencySec:       21e-6,   // fixed collective overhead
		SyncPerSqrtCoreSec:   2.06e-6, // growth with grid width
	}
}

// Mesh is a 2-D toroidal mesh of cores, NX x NY, with two cores per chip
// mapped onto consecutive IDs (the paper's "n x n x 2" topologies).
type Mesh struct {
	NX, NY int
	Link   LinkParams
}

// NewMesh returns a toroidal mesh with the given dimensions.
func NewMesh(nx, ny int) *Mesh {
	if nx <= 0 || ny <= 0 {
		panic("interconnect: mesh dimensions must be positive")
	}
	return &Mesh{NX: nx, NY: ny, Link: DefaultLinkParams()}
}

// NumCores returns the number of cores in the mesh.
func (m *Mesh) NumCores() int { return m.NX * m.NY }

// Coord returns the (x, y) grid coordinate of a core ID (row-major).
func (m *Mesh) Coord(id int) (x, y int) {
	if id < 0 || id >= m.NumCores() {
		panic(fmt.Sprintf("interconnect: core id %d out of range", id))
	}
	return id % m.NX, id / m.NX
}

// ID returns the core ID at grid coordinate (x, y), wrapping around the
// torus.
func (m *Mesh) ID(x, y int) int {
	x = ((x % m.NX) + m.NX) % m.NX
	y = ((y % m.NY) + m.NY) % m.NY
	return y*m.NX + x
}

// Hops returns the minimal number of torus hops between two cores.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	hx := absInt(sx - dx)
	if m.NX-hx < hx {
		hx = m.NX - hx
	}
	hy := absInt(sy - dy)
	if m.NY-hy < hy {
		hy = m.NY - hy
	}
	return hx + hy
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ShiftPairs returns the global source->destination pairs that shift data by
// (dx, dy) on the torus: every core sends to the core at (+dx, +dy). This is
// the pattern used for halo exchange (Figure 5 of the paper).
func (m *Mesh) ShiftPairs(dx, dy int) [][2]int {
	pairs := make([][2]int, 0, m.NumCores())
	for id := 0; id < m.NumCores(); id++ {
		x, y := m.Coord(id)
		pairs = append(pairs, [2]int{id, m.ID(x+dx, y+dy)})
	}
	return pairs
}

// MaxHops returns the largest hop count among the source->destination pairs
// of one collective permute: the distance its slowest transfer travels.
func (m *Mesh) MaxHops(pairs [][2]int) int {
	maxHops := 0
	for _, p := range pairs {
		maxHops = max(maxHops, m.Hops(p[0], p[1]))
	}
	return maxHops
}

// PermuteCost returns the modelled wall time and the maximum hop count of one
// CollectivePermute in which every core exchanges `bytes` bytes according to
// pairs. All cores block until the slowest transfer completes, so the cost is
// the maximum over the pairs plus the synchronisation overhead.
func (m *Mesh) PermuteCost(pairs [][2]int, bytes int64) (seconds float64, maxHops int) {
	maxHops = m.MaxHops(pairs)
	l := m.Link
	seconds = l.SyncLatencySec +
		l.SyncPerSqrtCoreSec*sqrtf(float64(m.NumCores())) +
		float64(maxHops)*l.HopLatencySec +
		float64(bytes)/l.BandwidthBytesPerSec
	return seconds, maxHops
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iteration is plenty here and avoids importing math for one call.
	z := x
	for i := 0; i < 20; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// Fabric is the runtime data plane of the mesh: it actually moves tensors
// (and packed bit words, for the host multispin engines) between the
// goroutines that model the cores.
type Fabric struct {
	mesh      *Mesh
	boxes     []chan *tensor.Tensor
	wordBoxes []chan []uint64

	mu        sync.Mutex
	reduceBuf []float64
	barrier   *cyclicBarrier
}

// NewFabric returns a data plane for the given mesh.
func NewFabric(m *Mesh) *Fabric {
	n := m.NumCores()
	f := &Fabric{
		mesh:      m,
		boxes:     make([]chan *tensor.Tensor, n),
		wordBoxes: make([]chan []uint64, n),
		reduceBuf: make([]float64, n),
		barrier:   newCyclicBarrier(n),
	}
	for i := range f.boxes {
		f.boxes[i] = make(chan *tensor.Tensor, 1)
		f.wordBoxes[i] = make(chan []uint64, 1)
	}
	return f
}

// Mesh returns the topology the fabric runs on.
func (f *Fabric) Mesh() *Mesh { return f.mesh }

// CollectivePermute is called by every core (from its own goroutine) with the
// same globally-identical pairs specification, mirroring the semantics of
// tpu_ops.collective_permute: core `self` contributes `data`, and receives
// the tensor sent by the core that lists `self` as its destination (or a
// zero tensor of the same shape if no core targets it). The call blocks
// until every core's sends and receives have completed — the collective is a
// lockstep phase, exactly as on the real pod, so back-to-back collectives
// with different communication patterns cannot interleave their deliveries.
func (f *Fabric) CollectivePermute(self int, data *tensor.Tensor, pairs [][2]int) *tensor.Tensor {
	// Send phase: deliver our tensor to every destination we appear as a
	// source for (XLA permits a source to appear at most once; we allow it
	// and take the first).
	for _, p := range pairs {
		if p[0] == self {
			f.boxes[p[1]] <- data.Clone()
		}
	}
	// Receive phase: if anyone targets us, take the delivery; otherwise the
	// result is zeros.
	var out *tensor.Tensor
	for _, p := range pairs {
		if p[1] == self {
			out = <-f.boxes[self]
			break
		}
	}
	if out == nil {
		out = tensor.New(data.DType(), data.Shape()...)
	}
	// Closing barrier: no core may start the next collective (and reuse the
	// mailboxes) until every core has drained its delivery from this one.
	f.barrier.Await()
	return out
}

// CollectivePermuteWords is CollectivePermute for packed bit payloads: the
// bit-packed multispin engines exchange their halo rows and columns as raw
// uint64 words (64 spins per word), which a float tensor cannot carry
// exactly. Semantics are identical to CollectivePermute — every core calls it
// with the same pairs, contributes data, receives the payload of the core
// that lists it as destination (or a zero slice of the same length), and no
// core leaves until all deliveries of the collective have drained.
func (f *Fabric) CollectivePermuteWords(self int, data []uint64, pairs [][2]int) []uint64 {
	for _, p := range pairs {
		if p[0] == self {
			f.wordBoxes[p[1]] <- append([]uint64(nil), data...)
		}
	}
	var out []uint64
	for _, p := range pairs {
		if p[1] == self {
			out = <-f.wordBoxes[self]
			break
		}
	}
	if out == nil {
		out = make([]uint64, len(data))
	}
	f.barrier.Await()
	return out
}

// AllReduceSum performs a global sum of one float64 per core and returns the
// total to every caller. It doubles as a barrier.
func (f *Fabric) AllReduceSum(self int, v float64) float64 {
	f.mu.Lock()
	f.reduceBuf[self] = v
	f.mu.Unlock()
	f.barrier.Await()
	var total float64
	for _, x := range f.reduceBuf {
		total += x
	}
	f.barrier.Await()
	return total
}

// Barrier blocks until every core has reached it.
func (f *Fabric) Barrier() { f.barrier.Await() }

// cyclicBarrier is a reusable barrier for a fixed number of participants.
type cyclicBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newCyclicBarrier(n int) *cyclicBarrier {
	b := &cyclicBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until n participants have called it, then releases them all.
func (b *cyclicBarrier) Await() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
