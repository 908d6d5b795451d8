// Command tradestat validates the run manifests cmd/tradenet writes
// (-telemetry, schema tradenet.run.v1) and the recorded BENCH_PR*.json
// reference files:
//
//	tradestat <manifest|dir|BENCH_PR*.json>...
//
// Directories and *.ndjson files are checked as manifests, *.json files as
// recorded-benchmark references. Every problem is reported; the exit status
// is 1 if there was any, 2 if no path was given. Time is not judged here:
// whether a change made the simulator slower is answered only by the
// alternating-pair runs of the benchmark under bench/.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tradestat <manifest|dir|BENCH_PR*.json>...")
		os.Exit(2)
	}
	if err := runCheck(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "tradestat: %v\n", err)
		os.Exit(1)
	}
}
