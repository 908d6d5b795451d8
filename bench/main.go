// Command bench is the repository's benchmark: four workloads, five
// end-to-end metrics, a per-layer ladder and sampled CPU attribution, all
// taken from outside the layers through their public functions and fields.
// README.md in this directory says what each number means.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run of one workload, the form BENCHMARK.json declares; the last
//	    line of standard output is the result as one JSON object
//	bash bench/run.sh [-seed n] [-probe]
//	    the whole suite: one-repetition runs interleaved round-robin across
//	    workloads, then a traced run each; prints a table and writes
//	    bench/out/result.json
//	bash bench/run.sh -compare a.json b.json
//	    applies the declared bounds to two suite results
//
// The parent never simulates: every repetition runs in a child process (this
// binary re-executed) so it starts on a cold heap and reports its own wall
// time, CPU and peak RSS.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload of BENCHMARK.json; empty runs the suite")
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Int("seconds", 25, "one run: the workload is repeated while one more repetition fits into this many measured seconds")
		trace    = fs.Int("trace", 0, "one run: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		probe    = fs.Bool("probe", false, "suite: finish with Design 1 at the full 988-server scenario (minutes, disturbs the box)")
		compare  = fs.Bool("compare", false, "compare two suite results: -compare a.json b.json")
		child    = fs.String("child", "", "internal: run one repetition (rep), its set-up alone (setup) or the ladder (ladder) in this process; -seed is then the scenario seed")
		spawned  = fs.Int64("spawned", 0, "internal: when the parent started this process, Unix nanoseconds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *child != "" {
		at := time.Now()
		if *spawned != 0 {
			at = time.Unix(0, *spawned)
		}
		var out any
		var err error
		switch *child {
		case "ladder":
			out = runLadder(fullScale)
		case "setup":
			var s float64
			_, _, s, err = runSetup(*workload, *seed, fullScale, nil, at)
			out = &repResult{Workload: *workload, Seed: *seed, E2E: map[string]float64{"setup_s": s}}
		default:
			out, err = runRep(*workload, *seed, fullScale, *trace == 1, at, outDir)
		}
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			return fail(err)
		}
		return 0
	}

	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, &spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	h := &harness{ctx: ctx, spec: &spec, seed: *seed, firstSim: map[string]string{}}
	if *workload != "" {
		res, err := h.oneRun(*workload, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res.Result)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Result.Correct {
			return 1
		}
		return 0
	}
	ok, err := h.suite(os.Stdout, *probe)
	if err != nil {
		return fail(err)
	}
	if !ok {
		return 1
	}
	return 0
}
