// Command isingtpu runs one Ising simulation on any of the repository's
// engines -- the simulated TPU backend by default -- and reports its
// observables, step-time profile and (for the TPU backend) modelled
// performance. It is the general-purpose CLI over the library.
//
// A chain on a host engine, a -replicas batch and a -temper ladder run on
// service.Run, the job runner of the isingd daemon, so `-json` prints the
// encode.Result isingd serves for the same spec. The tpu backend's single
// chain (-pod, -estimate and the plain run) goes through the simulated-TPU
// model paths instead.
//
// Examples:
//
//	isingtpu -size 256 -temp 2.269 -sweeps 2000
//	isingtpu -size 512 -algorithm conv -dtype float32 -sweeps 500
//	isingtpu -size 256 -pod 2x2 -sweeps 1000 -profile
//	isingtpu -size 114688x57344 -tile 128 -estimate      # model-only, paper scale
//	isingtpu -backend multispin -size 4096 -sweeps 200   # bit-packed host engine
//	isingtpu -backend gpusim -size 1024 -workers 8
//	isingtpu -backend sharded -shards 2x4 -size 4096     # multispin over a simulated mesh
//	isingtpu -temper 8 -backend multispin -size 256      # replica exchange over 8 temperatures
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"tpuising/internal/device/metrics"
	"tpuising/internal/interconnect"
	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/tpu"
	"tpuising/internal/perf"
	"tpuising/internal/service"
	"tpuising/internal/service/encode"
	"tpuising/internal/sweep"
	"tpuising/internal/tempering"
	"tpuising/internal/tensor"
)

func main() {
	size := flag.String("size", "256", "lattice size: side or ROWSxCOLS")
	temp := flag.Float64("temp", ising.CriticalTemperature(), "temperature in units of J/kB")
	sweeps := flag.Int("sweeps", 1000, "number of whole-lattice updates")
	burnin := flag.Int("burnin", 0, "sweeps discarded before the profile/observable report")
	tile := flag.Int("tile", 0, "MXU tile size (default 128, smaller for small lattices)")
	algorithm := flag.String("algorithm", "optim", "update kernel: optim, naive or conv")
	dtype := flag.String("dtype", "bfloat16", "storage precision: bfloat16 or float32")
	pod := flag.String("pod", "", "pod core grid as NXxNY (empty = single core)")
	seed := flag.Uint64("seed", 1, "random seed")
	engine := flag.String("backend", "tpu",
		"engine from the internal/ising/backend registry: "+backend.List()+
			" (aliases: serial/cpu = checkerboard, parallel/gpu = gpusim, sharded-ensemble = sharded); see the backend-choice table in README.md")
	workers := flag.Int("workers", 0, "worker goroutines of the host backends (0 = GOMAXPROCS)")
	shards := flag.String("shards", "",
		"shard grid of the sharded backend as RxC (R shards along rows x C along columns); the other registry backends ("+
			backend.List()+") reject it — see the backend-choice table in README.md")
	temper := flag.String("temper", "",
		"replica exchange: N temperature replicas of the selected -backend, as N or N:Tmin,Tmax (default window sized for healthy swap acceptance)")
	replicas := flag.Int("replicas", 1,
		"batched ensemble: B independent chains of the selected -backend at -temp, lane-packed (64 chains per machine word) for multispin at B>=32 and for sharded on a pod grid at B>=16, lane-parallel otherwise; per-lane results are reported")
	swapint := flag.Int("swapint", 10, "sweeps between replica-exchange swap attempts (with -temper)")
	profile := flag.Bool("profile", false, "print the work counters and the modelled step breakdown")
	estimate := flag.Bool("estimate", false, "do not run: report the modelled performance for this configuration")
	jsonOut := flag.Bool("json", false,
		"print the run's result as one JSON line (internal/service/encode.Result, the isingd wire format) instead of prose")
	flag.Parse()

	rows, cols, err := parseSize(*size)
	if err != nil {
		log.Fatal(err)
	}
	alg, perfAlg, err := parseAlgorithm(*algorithm)
	if err != nil {
		log.Fatal(err)
	}
	dt, err := parseDType(*dtype)
	if err != nil {
		log.Fatal(err)
	}
	podX, podY, err := parsePod(*pod)
	if err != nil {
		log.Fatal(err)
	}
	gridR, gridC, err := parseShards(*shards)
	if err != nil {
		log.Fatal(err)
	}
	// backend.Canonical's error already lists every registered engine name,
	// so a typo in -backend tells the user what the valid choices are.
	name, err := backend.Canonical(*engine)
	if err != nil {
		log.Fatal(err)
	}
	tileSize := *tile
	if tileSize == 0 {
		tileSize = backend.DefaultTile(rows, cols)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if set["shards"] && name != "sharded" {
		log.Fatalf("-shards selects the shard grid of the sharded backend; it does not apply to the %s backend (valid backends: %s)",
			name, backend.List())
	}
	// The TPU kernel options only make sense when the engine is the tpu
	// simulator — in single-chain and temper mode alike.
	if name != "tpu" {
		for _, tpuOnly := range []string{"algorithm", "dtype", "tile"} {
			if set[tpuOnly] {
				log.Fatalf("-%s selects a TPU kernel option; it does not apply to the %s backend (valid backends: %s)",
					tpuOnly, name, backend.List())
			}
		}
	}
	if *jsonOut {
		if *profile {
			log.Fatal("-profile prints a prose report; it does not combine with -json")
		}
		if *estimate || podX*podY > 1 {
			log.Fatal("-json prints a run result; it does not apply to -estimate or -pod")
		}
	}
	if *replicas < 1 {
		log.Fatalf("-replicas needs at least 1 chain, got %d", *replicas)
	}
	// -estimate models one sweep; every other mode runs -burnin + -sweeps.
	if !*estimate {
		if *sweeps < 0 {
			log.Fatalf("-sweeps must not be negative, got %d", *sweeps)
		}
		if *burnin < 0 {
			log.Fatalf("-burnin must not be negative, got %d", *burnin)
		}
	}
	// The CLI samples once, at the last sweep: sampling costs a measurable
	// share of a small sweep, and the prose and JSON report the final state.
	spec := service.JobSpec{Backend: name, Rows: rows, Cols: cols, Temperature: *temp,
		Sweeps: *sweeps, BurnIn: *burnin, Seed: *seed, SampleInterval: max(*sweeps, 1),
		Workers: *workers, GridR: gridR, GridC: gridC, Replicas: *replicas}
	if *temper != "" {
		rungs, tmin, tmax, err := parseTemper(*temper)
		if err != nil {
			log.Fatal(err)
		}
		if *estimate || podX*podY > 1 {
			log.Fatal("-estimate and -pod model a single TPU chain; they do not apply to -temper")
		}
		if set["temp"] {
			log.Fatal("-temp sets the single-chain temperature; with -temper the ladder window is -temper N:Tmin,Tmax")
		}
		if set["replicas"] {
			log.Fatal("-replicas runs B chains at one temperature; the -temper ladder already defines its replica count")
		}
		if *swapint < 1 {
			log.Fatalf("-swapint must be at least 1 sweep, got %d", *swapint)
		}
		if tmin == 0 && tmax == 0 {
			spec.Temperatures = sweep.CriticalWindow(tempering.DefaultWindow(rows*cols, rungs), rungs)
		} else {
			spec.Temperatures = sweep.TemperatureGrid(tmin, tmax, rungs)
		}
		spec.Temperature, spec.SwapInterval = 0, *swapint
		runHost(spec, tileSize, dt, alg, *profile, *jsonOut)
		return
	}
	if set["swapint"] {
		log.Fatal("-swapint sets the replica-exchange swap interval; it only applies with -temper")
	}
	if set["workers"] && name == "sharded" {
		log.Fatal("-workers controls the band parallelism of the other host backends; the sharded backend's parallelism is its shard grid (use -shards RxC)")
	}
	if *replicas > 1 {
		if *estimate || podX*podY > 1 {
			log.Fatal("-estimate and -pod model a single TPU chain; they do not apply to -replicas")
		}
		runHost(spec, tileSize, dt, alg, *profile, *jsonOut)
		return
	}
	if name != "tpu" {
		if *estimate || podX*podY > 1 {
			log.Fatalf("-estimate and -pod model the TPU; they do not apply to the %s backend (valid backends: %s)",
				name, backend.List())
		}
		runHost(spec, tileSize, dt, alg, *profile, *jsonOut)
		return
	}
	if set["workers"] {
		log.Fatal("-workers controls the host backends; the tpu backend ignores it")
	}
	if *estimate {
		runEstimate(rows, cols, tileSize, dt, perfAlg, podX, podY)
		return
	}
	if podX*podY > 1 {
		runPod(rows, cols, tileSize, dt, podX, podY, *temp, *seed, *sweeps, *burnin, *profile)
		return
	}
	runSingle(rows, cols, tileSize, dt, alg, perfAlg, *temp, *seed, *sweeps, *burnin, *profile, *jsonOut)
}

// runHost runs a host job — a chain on a host engine, a -replicas batch or a
// -temper ladder — on service.Run, the job runner isingd's workers use, so
// both print the same encode.Result for the same spec: one JSON line with
// -json, prose otherwise. Lane L of a batch is seeded ising.LaneSeed(seed, L),
// so its chain is exactly the single-chain run `-backend <name> -seed
// <laneseed>` would produce. The throughput counts every sweep, burn-in
// included, as isingd's does. tile, dt and alg are the tpu backend's kernel
// options.
func runHost(spec service.JobSpec, tile int, dt tensor.DType, alg tpu.Algorithm, profile, jsonOut bool) {
	engine := service.EngineConfig(spec)
	engine.TileSize, engine.DType, engine.Algorithm = tile, dt, alg
	run, err := service.NewRun(spec, engine)
	if err != nil {
		log.Fatal(err)
	}
	ladder, chain := run.Ladder(), run.Chain()
	tc := ising.CriticalTemperature()
	if !jsonOut {
		// Batches and ladders are named by the selected registry backend,
		// like isingd's jobs; the executing batch engine (the lane-packed
		// "ensemble" for a wide multispin batch, say) is an execution detail.
		switch {
		case ladder != nil:
			fmt.Printf("parallel tempering: %d replicas of backend %s, %dx%d lattice, T in [%.4f, %.4f], swap attempt every %d sweeps\n",
				len(spec.Temperatures), spec.Backend, spec.Rows, spec.Cols,
				spec.Temperatures[0], spec.Temperatures[len(spec.Temperatures)-1], spec.SwapInterval)
		case chain == nil:
			fmt.Printf("batched ensemble: %d lanes of backend %s (engine %s), %dx%d lattice, T=%.4f (T/Tc=%.3f)\n",
				spec.Replicas, spec.Backend, run.Batch().Name(), spec.Rows, spec.Cols, spec.Temperature, spec.Temperature/tc)
		case spec.Backend == "sharded":
			fmt.Printf("backend %s: %dx%d lattice over a %dx%d shard mesh (%d cores), T=%.4f (T/Tc=%.3f)\n",
				chain.Name(), spec.Rows, spec.Cols, spec.GridR, spec.GridC, spec.GridR*spec.GridC, spec.Temperature, spec.Temperature/tc)
		default:
			fmt.Printf("backend %s: %dx%d lattice, T=%.4f (T/Tc=%.3f)\n",
				chain.Name(), spec.Rows, spec.Cols, spec.Temperature, spec.Temperature/tc)
		}
	}
	run.Sweep(run.Total(), nil)
	r := run.Result()
	if jsonOut {
		if ladder != nil {
			// A ladder's output carries no wall-clock numbers, so it is
			// byte-identical for every -workers value (README's -json
			// contract, asserted by TestTemperOutputDeterministicAcrossWorkers).
			r.ElapsedSec, r.FlipsPerNs = 0, 0
		}
		if err := encode.WriteLine(os.Stdout, r); err != nil {
			log.Fatal(err)
		}
		return
	}
	msPerSweep := r.ElapsedSec * 1e3 / float64(max(run.Done(), 1))
	switch {
	case ladder != nil:
		rep := ladder.Report()
		fmt.Printf("after %d burn-in + %d measured rounds: %d round trips, overall swap acceptance %.3f (%d/%d)\n",
			rep.SwapRounds-uint64(rep.Samples), rep.Samples, rep.RoundTrips, rep.Acceptance(), rep.SwapAccepts, rep.SwapAttempts)
		fmt.Println("slot  T        T/Tc    |m|       +-        U4        E/spin    tau     swap acc")
		for t, rr := range rep.Replicas {
			acc := "    -"
			if t < len(rep.Replicas)-1 {
				acc = fmt.Sprintf("%.3f", rr.PairAcceptance)
			}
			fmt.Printf("%4d  %.4f  %.4f  %.5f  %.5f  %+.5f  %+.5f  %6.2f  %s\n",
				t, rr.Temperature, rr.Temperature/tc, rr.AbsMagnetization, rr.AbsMagnetizationErr,
				rr.Binder, rr.Energy, rr.AutocorrTime, acc)
		}
		if profile {
			counts := ladder.SwapCounts()
			model := perf.ExchangeTraffic(perf.ExchangeSpec{Replicas: ladder.Replicas(), Rounds: int(ladder.Rounds())},
				interconnect.DefaultLinkParams())
			fmt.Printf("swap traffic: %d B in %d messages (model: %d B, %d messages, %.2f us total exchange time)\n",
				counts.CommBytes, counts.CommEvents, model.TotalBytes, model.Events, model.ExchangeSec*1e6)
			fmt.Printf("ensemble work counters: %v\n", ladder.Counts())
		}
	case chain == nil:
		fmt.Println("lane  seed                  m         |m|       E/spin")
		for _, l := range r.Lanes {
			fmt.Printf("%4d  %-20d  %+.5f  %.5f  %+.5f\n", l.Lane, l.Seed, l.Magnetization, l.AbsMagnetization, l.Energy)
		}
		fmt.Printf("after %d sweeps over %d lanes: mean m = %+.5f, mean |m| = %.5f, mean E/spin = %.5f\n",
			run.Done(), len(r.Lanes), r.Magnetization, r.AbsMagnetization, r.Energy)
		if r.FlipsPerNs > 0 {
			fmt.Printf("measured aggregate host throughput: %.4f flips/ns (%.3f ms/sweep for all lanes)\n", r.FlipsPerNs, msPerSweep)
		}
		if profile {
			fmt.Printf("ensemble work counters: %v\n", run.Batch().Counts())
		}
	default:
		fmt.Printf("after %d sweeps: m = %+.5f, |m| = %.5f, E/spin = %.5f\n",
			run.Done(), r.Magnetization, r.AbsMagnetization, r.Energy)
		if r.FlipsPerNs > 0 {
			fmt.Printf("measured host throughput: %.4f flips/ns (%.3f ms/sweep)\n", r.FlipsPerNs, msPerSweep)
		}
		if profile {
			fmt.Printf("work counters: %v\n", run.Batch().Counts())
			if spec.Backend == "sharded" {
				rep := perf.ShardTraffic(perf.ShardSpec{Rows: spec.Rows, Cols: spec.Cols, GridR: spec.GridR, GridC: spec.GridC},
					interconnect.DefaultLinkParams())
				fmt.Printf("modelled interconnect: %d B/link/sweep (rows), %d B/link/sweep (cols), permute %.2f us/sweep\n",
					rep.RowLinkBytes, rep.ColLinkBytes, rep.PermuteSec*1e6)
			}
		}
	}
}

// parseTemper parses the -temper value: "N" or "N:Tmin,Tmax". With no
// explicit window it returns tmin = tmax = 0, and main sizes the window
// around Tc for healthy swap acceptance (tempering.DefaultWindow).
func parseTemper(s string) (replicas int, tmin, tmax float64, err error) {
	spec, window, hasWindow := strings.Cut(s, ":")
	replicas, err = strconv.Atoi(spec)
	if err != nil || replicas < 2 {
		return 0, 0, 0, fmt.Errorf("bad -temper %q: want at least 2 replicas as N or N:Tmin,Tmax", s)
	}
	if hasWindow {
		lo, hi, ok := strings.Cut(window, ",")
		if ok {
			tmin, err = strconv.ParseFloat(lo, 64)
			if err == nil {
				tmax, err = strconv.ParseFloat(hi, 64)
			}
		}
		if !ok || err != nil || tmin <= 0 || tmax <= tmin {
			return 0, 0, 0, fmt.Errorf("bad -temper %q: want N:Tmin,Tmax with 0 < Tmin < Tmax", s)
		}
	}
	return replicas, tmin, tmax, nil
}

func parseSize(s string) (rows, cols int, err error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	rows, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad -size %q: %v", s, err)
	}
	cols = rows
	if len(parts) == 2 {
		cols, err = strconv.Atoi(parts[1])
		if err != nil {
			return 0, 0, fmt.Errorf("bad -size %q: %v", s, err)
		}
	}
	return rows, cols, nil
}

func parseAlgorithm(s string) (tpu.Algorithm, perf.Algorithm, error) {
	switch strings.ToLower(s) {
	case "optim", "algorithm2", "2":
		return tpu.AlgOptim, perf.AlgOptim, nil
	case "naive", "algorithm1", "1":
		return tpu.AlgNaive, perf.AlgNaive, nil
	case "conv":
		return tpu.AlgConv, perf.AlgConv, nil
	}
	return 0, 0, fmt.Errorf("unknown -algorithm %q (want optim, naive or conv)", s)
}

func parseDType(s string) (tensor.DType, error) {
	switch strings.ToLower(s) {
	case "bfloat16", "bf16":
		return tensor.BFloat16, nil
	case "float32", "f32":
		return tensor.Float32, nil
	}
	return 0, fmt.Errorf("unknown -dtype %q (want bfloat16 or float32)", s)
}

func parsePod(s string) (x, y int, err error) {
	if s == "" {
		return 1, 1, nil
	}
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -pod %q: want NXxNY", s)
	}
	x, err = strconv.Atoi(parts[0])
	if err == nil {
		y, err = strconv.Atoi(parts[1])
	}
	if err != nil || x <= 0 || y <= 0 {
		return 0, 0, fmt.Errorf("bad -pod %q: want positive NXxNY", s)
	}
	return x, y, nil
}

// parseShards parses the -shards grid as RxC (shards along the rows first,
// matching how lattice sizes are written).
func parseShards(s string) (gridR, gridC int, err error) {
	if s == "" {
		return 1, 1, nil
	}
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -shards %q: want RxC (e.g. 2x4)", s)
	}
	gridR, err = strconv.Atoi(parts[0])
	if err == nil {
		gridC, err = strconv.Atoi(parts[1])
	}
	if err != nil || gridR <= 0 || gridC <= 0 {
		return 0, 0, fmt.Errorf("bad -shards %q: want positive RxC (e.g. 2x4)", s)
	}
	return gridR, gridC, nil
}

func runSingle(rows, cols, tile int, dt tensor.DType, alg tpu.Algorithm, perfAlg perf.Algorithm,
	temp float64, seed uint64, sweeps, burnin int, profile, jsonOut bool) {
	sim := tpu.NewSimulator(tpu.Config{
		Rows: rows, Cols: cols, Temperature: temp, TileSize: tile,
		DType: dt, Algorithm: alg, Seed: seed,
	})
	if !jsonOut {
		fmt.Printf("single core: %dx%d lattice, T=%.4f (T/Tc=%.3f), %v, tile %d\n",
			rows, cols, temp, temp/ising.CriticalTemperature(), alg, tile)
	}
	sim.Run(burnin)
	sim.ResetCounts()
	start := time.Now()
	sim.Run(sweeps)
	if jsonOut {
		r := encode.Result{Backend: sim.Name(), Rows: rows, Cols: cols,
			Temperature: temp, Seed: seed, Sweeps: sweeps, BurnIn: burnin}
		encode.Observables(&r, sim)
		elapsed := time.Since(start)
		r.ElapsedSec = elapsed.Seconds()
		if sweeps > 0 && elapsed > 0 {
			// Wall-clock speed of the simulator on this host, like the other
			// backends — NOT the modelled TPU throughput (-profile/-estimate
			// report that).
			r.FlipsPerNs = float64(rows) * float64(cols) * float64(sweeps) / float64(elapsed.Nanoseconds())
		}
		if err := encode.WriteLine(os.Stdout, r); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("after %d sweeps: m = %+.5f, |m| = %.5f, E/spin = %.5f\n",
		burnin+sweeps, sim.Magnetization(), abs(sim.Magnetization()), sim.Energy())
	if profile {
		perSweep := perSweepCounts(sim.Counts(), sweeps)
		model := perf.DefaultModel()
		if perfAlg == perf.AlgConv {
			model = model.ForConv()
		}
		b := model.StepBreakdown(perSweep, 1)
		fmt.Printf("device work per sweep: %v\n", perSweep)
		fmt.Printf("modelled TPU v3 step: %.3f ms (MXU %.1f%%, VPU %.1f%%, format %.1f%%)\n",
			b.StepSec()*1e3, pct(b.MXUSec, b.StepSec()), pct(b.VPUSec, b.StepSec()), pct(b.FormatSec, b.StepSec()))
		fmt.Printf("modelled throughput: %.2f flips/ns\n",
			perf.Throughput(float64(rows)*float64(cols), b.StepSec()))
	}
}

func runPod(rows, cols, tile int, dt tensor.DType, podX, podY int,
	temp float64, seed uint64, sweeps, burnin int, profile bool) {
	cfg := tpu.DistConfig{
		PodX: podX, PodY: podY,
		CoreRows: rows / podY, CoreCols: cols / podX,
		Temperature: temp, TileSize: tile, DType: dt, Seed: seed,
	}
	if cfg.CoreRows*podY != rows || cfg.CoreCols*podX != cols {
		log.Fatalf("lattice %dx%d does not decompose over a %dx%d pod", rows, cols, podX, podY)
	}
	d := tpu.NewDistSimulator(cfg)
	fmt.Printf("pod %dx%d (%d cores): global %dx%d lattice, per-core %dx%d, T=%.4f\n",
		podX, podY, d.NumCores(), rows, cols, cfg.CoreRows, cfg.CoreCols, temp)
	d.Run(burnin)
	d.ResetCounts()
	d.Run(sweeps)
	fmt.Printf("after %d sweeps: m = %+.5f, E/spin = %.5f\n", burnin+sweeps, d.Magnetization(), d.Energy())
	if profile {
		perCore, total := d.Counts()
		perSweep := perSweepCounts(perCore, sweeps)
		b := perf.DefaultModel().StepBreakdown(perSweep, d.NumCores())
		fmt.Printf("per-core work per sweep: %v\n", perSweep)
		fmt.Printf("pod-total ops: %d\n", total.Ops)
		fmt.Printf("modelled step: %.3f ms, collective permute %.3f ms, throughput %.2f flips/ns\n",
			b.StepSec()*1e3, b.CommSec*1e3,
			perf.Throughput(float64(rows)*float64(cols), b.StepSec()))
	}
}

func runEstimate(rows, cols, tile int, dt tensor.DType, alg perf.Algorithm, podX, podY int) {
	halo := podX*podY > 1
	counts := perf.EstimateSweepCounts(perf.SweepSpec{
		Rows: rows, Cols: cols, Tile: tile, DType: dt, Algorithm: alg,
		Halo: halo, PodX: podX, PodY: podY,
	})
	model := perf.DefaultModel()
	if alg == perf.AlgConv {
		model = model.ForConv()
	}
	cores := podX * podY
	b := model.StepBreakdown(counts, cores)
	spins := float64(rows) * float64(cols) * float64(cores)
	tput := perf.Throughput(spins, b.StepSec())
	fmt.Printf("estimate for %v on %d core(s), per-core %dx%d %s:\n", alg, cores, rows, cols, dtName(dt))
	fmt.Printf("  per-core work per sweep: %v\n", counts)
	fmt.Printf("  step time: %.3f ms (MXU %.1f%%, VPU %.1f%%, format %.1f%%, comm %.3f%%)\n",
		b.StepSec()*1e3, pct(b.MXUSec, b.StepSec()), pct(b.VPUSec, b.StepSec()),
		pct(b.FormatSec, b.StepSec()), pct(b.CommSec, b.StepSec()))
	fmt.Printf("  throughput: %.2f flips/ns  (%.2f per core)\n", tput, tput/float64(cores))
	fmt.Printf("  energy: %.2f nJ/flip\n", model.EnergyPerFlip(tput/float64(cores)))
	r := model.RooflineAnalysis(counts, b.StepSec())
	fmt.Printf("  roofline: %.2f TFLOPS achieved, %.1f%% of roofline, %.1f%% of peak\n",
		r.AchievedFLOPS/1e12, r.PctOfRoofline, r.PctOfPeak)
}

func dtName(d tensor.DType) string {
	if d == tensor.BFloat16 {
		return "bfloat16"
	}
	return "float32"
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// perSweepCounts divides the accumulated counters of a run by the number of
// sweeps, giving the per-sweep work the performance model expects.
func perSweepCounts(c metrics.Counts, sweeps int) metrics.Counts {
	if sweeps <= 1 {
		return c
	}
	n := int64(sweeps)
	return metrics.Counts{
		MXUMacs:     c.MXUMacs / n,
		VPUOps:      c.VPUOps / n,
		FormatBytes: c.FormatBytes / n,
		HBMBytes:    c.HBMBytes / n,
		CommBytes:   c.CommBytes / n,
		CommEvents:  c.CommEvents / n,
		CommHops:    c.CommHops / n,
		Ops:         c.Ops / n,
	}
}
