// Command benchtables regenerates every performance table and figure of the
// paper (Tables 1-7, the HBM capacity table and Figures 8-9) from the
// calibrated performance model and writes them as text and CSV files.
//
// Usage:
//
//	benchtables [-out results] [-stdout]
//
// The correctness figures (4 and 7), which run real Monte-Carlo chains, are
// generated by the separate cmd/correctness binary. Measured host throughput
// is the isingbench module's job (see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tpuising/internal/harness"
	"tpuising/internal/perf"
)

func main() {
	out := flag.String("out", "results", "directory for the generated .txt and .csv files")
	stdout := flag.Bool("stdout", false, "also print every table to standard output")
	flag.Parse()

	if err := run(*out, *stdout); err != nil {
		log.Fatal(err)
	}
}

func run(outDir string, stdout bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", outDir, err)
	}
	tables := harness.AllPerformanceTables(perf.DefaultModel())
	for _, tab := range tables {
		if stdout {
			fmt.Println(tab.Text())
		}
		if err := os.WriteFile(filepath.Join(outDir, tab.ID+".txt"), []byte(tab.Text()), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, tab.ID+".csv"), []byte(tab.CSV()), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d tables to %s\n", len(tables), outDir)
	return nil
}
