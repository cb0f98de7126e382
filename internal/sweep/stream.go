package sweep

// Sample is one observation of a running chain: the sweep count at which it
// was taken and the per-spin observables there. It is the in-library form of
// the NDJSON sample lines the simulation service streams to clients
// (internal/service/encode holds the wire type).
type Sample struct {
	// Sweep is the number of whole-lattice updates completed when the sample
	// was taken.
	Sweep int
	// Magnetization is the magnetisation per spin at that sweep.
	Magnetization float64
	// Energy is the energy per spin.
	Energy float64
}
