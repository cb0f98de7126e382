package sweep

// Sample is one observation of a running chain: the sweep count at which it
// was taken and the per-spin observables there. Only the isingbench module
// uses it, for the samples of the chains its deep check drives directly; the
// simulation service streams internal/service/encode's Sample.
type Sample struct {
	// Sweep is the number of whole-lattice updates completed when the sample
	// was taken.
	Sweep int
	// Magnetization is the magnetisation per spin at that sweep.
	Magnetization float64
	// Energy is the energy per spin.
	Energy float64
}
