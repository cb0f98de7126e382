// Package pod implements the SIMD replication runtime the paper uses to run
// the same checkerboard program on every TensorCore of a TPU Pod slice
// (tf.tpu.replicate): a grid of simulated cores connected by the toroidal
// mesh, one goroutine per core, running in lockstep at the communication
// points.
package pod

import (
	"fmt"
	"sync"

	"tpuising/internal/device/metrics"
	"tpuising/internal/device/tensorcore"
	"tpuising/internal/interconnect"
	"tpuising/internal/tensor"
)

// Pod is a slice of a TPU pod: an NX x NY grid of TensorCores.
type Pod struct {
	mesh   *interconnect.Mesh
	fabric *interconnect.Fabric
	cores  []*tensorcore.Core
}

// New returns a pod slice with an nx x ny core grid.
func New(nx, ny int) *Pod {
	m := interconnect.NewMesh(nx, ny)
	p := &Pod{
		mesh:   m,
		fabric: interconnect.NewFabric(m),
		cores:  make([]*tensorcore.Core, m.NumCores()),
	}
	for i := range p.cores {
		p.cores[i] = tensorcore.New(i)
	}
	return p
}

// NumCores returns the number of cores in the pod slice.
func (p *Pod) NumCores() int { return len(p.cores) }

// Mesh returns the interconnect topology.
func (p *Pod) Mesh() *interconnect.Mesh { return p.mesh }

// Core returns the core with the given ID (mainly for inspection in tests).
func (p *Pod) Core(id int) *tensorcore.Core { return p.cores[id] }

// TotalCounts sums the work counters of all cores.
func (p *Pod) TotalCounts() metrics.Counts {
	var total metrics.Counts
	for _, c := range p.cores {
		total.Add(c.Counts())
	}
	return total
}

// MaxCounts returns, per counter, the maximum over cores; in a lockstep SIMD
// program the slowest core determines the step time, and with a uniform
// decomposition all cores have (near) identical counts.
func (p *Pod) MaxCounts() metrics.Counts {
	var mx metrics.Counts
	for _, c := range p.cores {
		k := c.Counts()
		if k.MXUMacs > mx.MXUMacs {
			mx.MXUMacs = k.MXUMacs
		}
		if k.VPUOps > mx.VPUOps {
			mx.VPUOps = k.VPUOps
		}
		if k.FormatBytes > mx.FormatBytes {
			mx.FormatBytes = k.FormatBytes
		}
		if k.HBMBytes > mx.HBMBytes {
			mx.HBMBytes = k.HBMBytes
		}
		if k.CommBytes > mx.CommBytes {
			mx.CommBytes = k.CommBytes
		}
		if k.CommEvents > mx.CommEvents {
			mx.CommEvents = k.CommEvents
		}
		if k.CommHops > mx.CommHops {
			mx.CommHops = k.CommHops
		}
		if k.Ops > mx.Ops {
			mx.Ops = k.Ops
		}
	}
	return mx
}

// ResetCounts clears every core's counters.
func (p *Pod) ResetCounts() {
	for _, c := range p.cores {
		c.ResetCounts()
	}
}

// Replica is the per-core execution context handed to the replicated
// function: the core's compute units plus its view of the interconnect.
type Replica struct {
	// ID is the core's index in the pod (row-major over the grid).
	ID int
	// X and Y are the core's coordinates in the grid.
	X, Y int
	// Core is the simulated TensorCore executing this replica.
	Core *tensorcore.Core

	pod *Pod
}

// NumCores returns the pod size.
func (r *Replica) NumCores() int { return r.pod.NumCores() }

// GridShape returns the pod's core grid dimensions.
func (r *Replica) GridShape() (nx, ny int) { return r.pod.mesh.NX, r.pod.mesh.NY }

// NeighborID returns the core ID at the torus offset (dx, dy) from this
// replica.
func (r *Replica) NeighborID(dx, dy int) int { return r.pod.mesh.ID(r.X+dx, r.Y+dy) }

// CollectivePermute exchanges data between cores according to the globally
// identical pairs specification, returning the tensor sent to this core (or
// zeros if none). The communication cost is charged to this core's profile.
func (r *Replica) CollectivePermute(data *tensor.Tensor, pairs [][2]int) *tensor.Tensor {
	out := r.pod.fabric.CollectivePermute(r.ID, data, pairs)
	r.Core.RecordComm(data.SizeBytes(), int64(r.pod.mesh.MaxHops(pairs)))
	return out
}

// ShiftExchange sends data to the core at (+dx, +dy) and returns the tensor
// received from the core at (-dx, -dy); this is the halo-exchange pattern of
// Figure 5.
func (r *Replica) ShiftExchange(data *tensor.Tensor, dx, dy int) *tensor.Tensor {
	return r.CollectivePermute(data, r.pod.mesh.ShiftPairs(dx, dy))
}

// CollectivePermuteWords is CollectivePermute for packed bit payloads
// (uint64 words carrying 64 spins each, as used by the sharded multispin
// engine). The exchanged bytes and hop count are charged to this core's
// communication profile exactly like the tensor collective.
func (r *Replica) CollectivePermuteWords(data []uint64, pairs [][2]int) []uint64 {
	out := r.pod.fabric.CollectivePermuteWords(r.ID, data, pairs)
	r.Core.RecordComm(int64(len(data))*8, int64(r.pod.mesh.MaxHops(pairs)))
	return out
}

// ShiftExchangeWords sends packed words to the core at (+dx, +dy) and returns
// the words received from the core at (-dx, -dy).
func (r *Replica) ShiftExchangeWords(data []uint64, dx, dy int) []uint64 {
	return r.CollectivePermuteWords(data, r.pod.mesh.ShiftPairs(dx, dy))
}

// AllReduceSum returns the sum of v over all cores (blocking until every
// replica contributes).
func (r *Replica) AllReduceSum(v float64) float64 {
	out := r.pod.fabric.AllReduceSum(r.ID, v)
	r.Core.RecordComm(8, 0)
	return out
}

// Barrier blocks until every replica reaches it.
func (r *Replica) Barrier() { r.pod.fabric.Barrier() }

// Replicate runs fn once per core, each in its own goroutine, and waits for
// all replicas to finish. It returns the first error encountered (after all
// replicas have completed). This mirrors tf.tpu.replicate: the same program,
// parameterised only by the replica context.
func (p *Pod) Replicate(fn func(r *Replica) error) error {
	var wg sync.WaitGroup
	errs := make([]error, p.NumCores())
	for id := 0; id < p.NumCores(); id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			x, y := p.mesh.Coord(id)
			rep := &Replica{ID: id, X: x, Y: y, Core: p.cores[id], pod: p}
			defer func() {
				if rec := recover(); rec != nil {
					errs[id] = fmt.Errorf("pod: replica %d panicked: %v", id, rec)
				}
			}()
			errs[id] = fn(rep)
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
