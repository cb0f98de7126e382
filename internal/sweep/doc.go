// Package sweep drives temperature sweeps of the Ising simulators and
// collects the observables the paper uses for its correctness study (Figures
// 4 and 7): the average magnetisation m(T) and the Binder parameter U4(T)
// over a grid of temperatures around the critical point, for several lattice
// sizes and both precisions.
//
// Run simulates every temperature as an independent chain: one engine per
// grid point, swept together as the lanes of one ising.NewBatchOf batch.
// internal/tempering couples a grid into a replica-exchange ladder instead. BinderCrossing locates the Tc
// estimate where two lattice sizes' U4(T) curves intersect — the validation
// described in docs/PHYSICS.md.
package sweep
