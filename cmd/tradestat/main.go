// Command tradestat is the perf-trajectory observatory: it reads the run
// manifests cmd/tradenet writes (-telemetry, schema tradenet.run.v1) and
// the recorded BENCH_PR*.json reference numbers, computes benchstat-style
// deltas across runs/seeds/revisions, and exits non-zero on regression —
// the CI perf gate.
//
// Modes (exactly one):
//
//	tradestat -check <manifest|dir|BENCH_PR*.json>...
//	    Validate manifests against the schema and BENCH_PR*.json files
//	    against the recorded-benchmark shape. Exit 1 on any failure.
//
//	tradestat -compare <baseDir> <headDir>
//	    Match manifests between two telemetry directories by run identity
//	    (experiment/design/cell/seed) and compare wall time per run and GC
//	    pressure (alloc bytes/event). Exit 1 if head regresses beyond the
//	    thresholds on any matched run.
//
//	tradestat -bench <base.out> <head.out>
//	    Compare two `go test -bench` outputs on ns/op, best-of per
//	    benchmark (the minimum is the honest sample on a noisy box). Exit 1
//	    on regression beyond -time-threshold. This replaces the ad-hoc awk
//	    gate that used to live in CI.
//
//	tradestat -trend <dir>...
//	    Render wall time per run across several telemetry directories
//	    (revisions, in argument order) as a trend table.
//
// Every mode prints events/sec beside the time it gates and gates nothing on
// it: the rate divides by the scheduler's event count, and a revision that
// fires fewer events for the same simulated work (PR 14 halved them on the
// frame path) lowers it while every run gets faster.
//
// Common flags: -time-threshold (default 0.02 — head may take at most 2%
// longer), -gc-threshold (default 0.10 on alloc/event), -csv <file> to also
// write the comparison/trend as CSV.
package main

import (
	"flag"
	"fmt"
	"os"

	"tradenet/internal/metrics"
)

func main() {
	var (
		check    = flag.Bool("check", false, "validate manifests and BENCH_PR*.json files")
		compare  = flag.Bool("compare", false, "compare two telemetry directories (base head)")
		bench    = flag.Bool("bench", false, "compare two `go test -bench` outputs (base.out head.out)")
		trend    = flag.Bool("trend", false, "render wall-time trends across telemetry directories")
		timeThr  = flag.Float64("time-threshold", 0.02, "fail -compare/-bench when head takes more than this fraction longer than base")
		gcThresh = flag.Float64("gc-threshold", 0.10, "fail -compare when head alloc-bytes/event grows more than this fraction")
		csvPath  = flag.String("csv", "", "also write the comparison/trend table as CSV to this file")
	)
	flag.Parse()
	args := flag.Args()

	modes := 0
	for _, m := range []bool{*check, *compare, *bench, *trend} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "tradestat: exactly one of -check, -compare, -bench, -trend is required")
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *check:
		err = runCheck(os.Stdout, args)
	case *compare:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "tradestat -compare: want exactly two directories (base head)")
			os.Exit(2)
		}
		err = runCompare(os.Stdout, args[0], args[1], *timeThr, *gcThresh, *csvPath)
	case *bench:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "tradestat -bench: want exactly two bench outputs (base.out head.out)")
			os.Exit(2)
		}
		err = runBench(os.Stdout, args[0], args[1], *timeThr)
	case *trend:
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "tradestat -trend: want one or more telemetry directories")
			os.Exit(2)
		}
		err = runTrend(os.Stdout, args, *csvPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tradestat: %v\n", err)
		os.Exit(1)
	}
}

// table is a tiny alias so the render helpers read naturally.
func table(headers []string, rows [][]string) string {
	return metrics.Table(headers, rows)
}
