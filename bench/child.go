package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repResult is what one child process reports for one repetition.
type repResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer"`
	Sim       string             `json:"sim"` // simulated fingerprint: identical across repetitions of a seed
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

// job is one workload instance inside a child.
type job interface {
	setup()  // build the plant / generate inputs
	run()    // the measured phase
	verify() // correctness checks and counts, after the measured phase
}

// runEnv is what a job sees of the harness.
type runEnv struct {
	seed  int64
	scale scale
	tr    *tracer // nil when untraced

	layer     map[string]float64
	sim       string
	feedMsgs  int64 // messages codec-stream pushed through the feed stages
	attempted int64
	failed    int64
	failures  []string
}

// check counts one operation and records why it failed, if it did.
func (e *runEnv) check(ok bool, format string, args ...any) {
	e.attempted++
	if ok {
		return
	}
	e.failed++
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// span runs fn inside a harness span.
func (e *runEnv) span(name string, fn func()) {
	id := e.tr.begin(name)
	fn()
	e.tr.end(id)
}

func newJob(name string, env *runEnv) (job, error) {
	switch name {
	case "d1-leafspine-528":
		return &designJob{env: env, d1: true}, nil
	case "d3-l1s-988":
		return &designJob{env: env}, nil
	case "chaos-small":
		return &chaosJob{env: env}, nil
	case "codec-stream":
		return &codecJob{env: env}, nil
	case "d1-paper-988":
		return &designJob{env: env, d1: true, full: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func cpuSeconds(ru *syscall.Rusage) (user, sys float64) {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

const mb = 1 << 20

// peakRSSMB reads this process's resident-set high-water mark. It is VmHWM
// and not getrusage's ru_maxrss because Linux carries ru_maxrss across exec:
// a child's value starts at its parent's peak, which would hide a small
// workload behind the harness.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runSetup is the set-up half of a repetition: it builds the job and reports
// the seconds since spawned, which is when the parent started this process,
// so setup_s covers exec, runtime and package initialisation as well as the
// job's own set-up.
func runSetup(name string, seed int64, sc scale, tr *tracer, spawned time.Time) (*runEnv, job, float64, error) {
	env := &runEnv{seed: seed, scale: sc, tr: tr, layer: map[string]float64{}}
	j, err := newJob(name, env)
	if err != nil {
		return nil, nil, 0, err
	}
	env.span("setup", j.setup)
	return env, j, time.Since(spawned).Seconds(), nil
}

// runRep runs one repetition in this process and leaves a traced one's trace
// and profile in dir.
func runRep(name string, seed int64, sc scale, traced bool, spawned time.Time, dir string) (*repResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s/seed%d", name, seed))
	}
	env, j, setupS, err := runSetup(name, seed, sc, tr, spawned)
	if err != nil {
		return nil, err
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	t0 := time.Now()
	env.span("run", j.run)
	runS := time.Since(t0).Seconds()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	if traced {
		pprof.StopCPUProfile()
	}

	u0, s0 := cpuSeconds(&ru0)
	u1, s1 := cpuSeconds(&ru1)
	res := &repResult{Workload: name, Seed: seed, Traced: traced, Layer: env.layer}
	res.E2E = map[string]float64{
		"run_s":    runS,
		"cpu_s":    u1 + s1 - u0 - s0,
		"setup_s":  setupS,
		"alloc_mb": float64(ms1.TotalAlloc-ms0.TotalAlloc) / mb,
	}
	env.layer["runtime.mallocs_k"] = float64(ms1.Mallocs-ms0.Mallocs) / 1000
	env.layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	env.layer["runtime.sys_cpu_s"] = s1 - s0
	if traced {
		// A forced collection leaves exactly what the finished run still
		// holds; it costs a second on the large heaps, so untraced
		// repetitions skip it.
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		env.layer["runtime.heap_live_end_mb"] = float64(ms1.HeapAlloc) / mb
	}

	env.span("verify", j.verify)
	runtime.KeepAlive(j)
	if ev, ok := env.layer["sim.events"]; ok {
		env.layer["sim.events_per_s"] = ev / runS
	}

	if res.E2E["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	res.Sim, res.Attempted, res.Failed, res.Failures = env.sim, env.attempted, env.failed, env.failures

	if traced {
		if err := writeTrace(env, name, runS, prof.Bytes(), dir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeTrace folds the traced repetition's spans and CPU profile into the
// per-layer table and leaves the raw trace and profile in outDir.
func writeTrace(env *runEnv, name string, runS float64, prof []byte, dir string) error {
	samples, err := parseProfile(prof)
	if err != nil {
		return err
	}
	for k, v := range cpuTable(samples) {
		env.layer[k] = v
	}
	self := env.tr.selfTimes()
	for metric, stage := range spanOf {
		env.layer[metric] = 100 * self[stage].Seconds() / runS
	}
	if env.feedMsgs > 0 {
		var feedS float64
		for _, stage := range feedStages {
			feedS += self[stage].Seconds()
		}
		env.layer["feed.msgs_per_s"] = float64(env.feedMsgs) / feedS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".pprof"), prof, 0o644); err != nil {
		return err
	}
	return env.tr.writeChrome(filepath.Join(dir, "trace-"+name+".json"))
}
