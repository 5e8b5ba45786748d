// Command report runs the full experiment suite and writes the
// paper-vs-measured reproduction report (EXPERIMENTS.md).
//
// Usage:
//
//	report -out EXPERIMENTS.md            # full scale (several minutes)
//	report -scale 10 -out /tmp/exp.md     # quick pass
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"pubsubcd/internal/experiments"
	"pubsubcd/internal/report"
	"pubsubcd/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	out := fs.String("out", "EXPERIMENTS.md", "output path")
	scale := fs.Int("scale", 1, "workload scale divisor (1 = paper's full scale)")
	seed := fs.Int64("seed", 1, "workload random seed")
	topoSeed := fs.Int64("toposeed", 7, "topology random seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "simulation cells run concurrently (≥ 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be ≥ 1, got %d", *scale)
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be ≥ 1, got %d", *parallel)
	}
	h := experiments.New(experiments.Config{Scale: *scale, Seed: *seed, TopologySeed: *topoSeed, Parallelism: *parallel})
	data, err := report.Collect(h, *scale)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.Generate(data, f, "cmd/report"); err != nil {
		return err
	}
	for _, trace := range []workload.TraceName{workload.TraceNEWS, workload.TraceALTERNATIVE} {
		if err := report.WorkloadSnapshot(f, trace, *scale, *seed); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
