package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Every registered experiment must be listed in the usage message — the
// usage and the runnable set derive from the same slice, so an id missing
// here means the registry itself lost an entry.
func TestUsageListsEveryExperiment(t *testing.T) {
	var b strings.Builder
	writeUsage(&b, "nope")
	usage := b.String()
	if !strings.Contains(usage, `unknown experiment "nope"`) {
		t.Fatalf("usage missing unknown-id echo: %q", usage)
	}
	for _, e := range experiments {
		if !strings.Contains(usage, " "+e.id) {
			t.Errorf("experiment %q not listed in usage: %q", e.id, usage)
		}
	}
}

func TestExperimentIDsUniqueAndRunnable(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range experiments {
		if e.id == "" || e.id == "all" {
			t.Errorf("reserved or empty experiment id %q", e.id)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.id)
		}
		if got, ok := lookupExperiment(e.id); !ok || got.id != e.id {
			t.Errorf("lookupExperiment(%q) failed", e.id)
		}
	}
	if _, ok := lookupExperiment("definitely-not-registered"); ok {
		t.Error("lookupExperiment matched an unregistered id")
	}
}

// -cpuprofile / -memprofile: each path gets a non-empty profile when stop
// runs, an unwritable path is an error up front, and with both flags off
// nothing is started or written.
func TestStartProfiles(t *testing.T) {
	stop, err := startProfiles("", "")
	if err != nil {
		t.Fatalf("profiles off: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("profiles off, stop: %v", err)
	}

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if stop, err = startProfiles(cpu, mem); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}

	if _, err := startProfiles(filepath.Join(dir, "no-such-dir", "cpu.pprof"), ""); err == nil {
		t.Error("unwritable -cpuprofile path did not fail")
	}
}

// -replications below 1 is a usage error: the binary exits 2 with one line
// on stderr and runs nothing, for the per-seed experiments as for the rest.
func TestReplicationsBelowOneRejected(t *testing.T) {
	bin := buildTradenet(t)
	for _, args := range [][]string{
		{"-experiment", "failover", "-replications", "0"},
		{"-experiment", "oefailover", "-replications", "0"},
		{"-experiment", "wanredundancy", "-replications", "-1"},
		{"-experiment", "exchangefailover", "-replications", "0"},
		{"-experiment", "designs", "-replications", "0"},
	} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed output before rejecting:\n%s", args, stdout.String())
		}
		if lines := strings.Count(stderr.String(), "\n"); lines != 1 || !strings.Contains(stderr.String(), "-replications") {
			t.Errorf("%v: stderr %q, want one line naming -replications", args, stderr.String())
		}
	}
}

// A trace file that cannot be written is an error: the binary exits 1 and
// names the failure instead of claiming it wrote the file.
func TestTraceExportWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes with")
	}
	cmd := exec.Command(buildTradenet(t), "-experiment", "attribution", "-trace", "/dev/full")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("err %v, want exit status 1", err)
	}
	if !strings.Contains(stderr.String(), "trace export") || strings.Contains(stdout.String(), "wrote /dev/full") {
		t.Errorf("stderr %q, stdout tail %q: want a trace export error and no \"wrote\" line",
			stderr.String(), stdout.String()[max(0, stdout.Len()-80):])
	}
}

// buildTradenet compiles the command into a temporary directory.
func buildTradenet(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "tradenet")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}
