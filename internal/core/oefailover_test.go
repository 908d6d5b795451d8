package core

import (
	"strings"
	"testing"
)

// TestOEFailoverInvariants runs E21 at small scale on seeds 1-3, the seeds
// the reps3 golden pins, and checks the paper's resilience invariants on
// every design: the kill is detected, no resting orders survive a dead
// session, the reconnected view matches the book, and no duplicate
// executions slip through retry/replay.
func TestOEFailoverInvariants(t *testing.T) {
	rep := RunOEFailover(SmallScenario(), Seeds(1, 3))
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(rep.Runs))
	}
	if !rep.AllInvariantsOK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
	for _, run := range rep.Runs {
		for _, d := range run.Designs {
			if d.CODCancels == 0 {
				t.Errorf("seed %d %s: cancel-on-disconnect never fired", run.Seed, d.Design)
			}
			if d.Reconnects == 0 {
				t.Errorf("seed %d %s: victim never reconnected", run.Seed, d.Design)
			}
			if d.Overfills != 0 {
				t.Errorf("seed %d %s: %d overfills (duplicate executions)", run.Seed, d.Design, d.Overfills)
			}
		}
	}
}

// TestOEFailoverDeterministic asserts the fault-injected run is still a pure
// function of the seed: the full rendered report — tables, registry dump,
// fault timelines — must be byte-identical across repeat runs.
func TestOEFailoverDeterministic(t *testing.T) {
	a := RunOEFailover(SmallScenario(), []int64{1}).String()
	b := RunOEFailover(SmallScenario(), []int64{1}).String()
	if a != b {
		t.Fatalf("same-seed E21 runs differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestOEFailoverRegistryNames is the metrics-registry satellite: the
// resilience counters must be registered and appear in the dump.
func TestOEFailoverRegistryNames(t *testing.T) {
	rep := RunOEFailover(SmallScenario(), []int64{1})
	reg := rep.Runs[0].Designs[0].Registry
	for _, name := range []string{
		"oe.retries", "oe.busy_rejects", "oe.cancel_on_disconnect", "oe.sessions_dropped",
	} {
		if !strings.Contains(reg, name) {
			t.Errorf("registry dump missing %q:\n%s", name, reg)
		}
	}
}
