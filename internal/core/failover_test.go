package core

import (
	"strings"
	"testing"
)

// TestRunFailoverSpineScenario checks the spine-kill run end to end: the
// fault must actually blackhole traffic, the fabric must reconverge (once for
// the failure, once for the recovery), the blackholed feed data must come
// back through the exchange's TCP replay service, and delivery must catch
// back up to a measurable time-to-recovery.
func TestRunFailoverSpineScenario(t *testing.T) {
	rep := RunFailover(SmallScenario(), Seeds(1, 2))
	if len(rep.Runs) != 2 {
		t.Fatalf("want 2 runs, got %d", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		sp := run.Spine
		if sp.Blackholed == 0 {
			t.Errorf("seed %d: spine kill blackholed no frames", run.Seed)
		}
		if sp.Reconvergences != 2 {
			t.Errorf("seed %d: want 2 reconvergences (fail + recover), got %d", run.Seed, sp.Reconvergences)
		}
		if sp.GapRequests == 0 || sp.RecoveredMsgs == 0 {
			t.Errorf("seed %d: blackholed feed data was never replayed (req=%d, replayed=%d)",
				run.Seed, sp.GapRequests, sp.RecoveredMsgs)
		}
		if sp.ServedDgrams == 0 {
			t.Errorf("seed %d: exchange replay service served nothing", run.Seed)
		}
		if !sp.RecoveredInRun || sp.TimeToRecovery <= 0 {
			t.Errorf("seed %d: delivery never caught back up (recovered=%v ttr=%v)",
				run.Seed, sp.RecoveredInRun, sp.TimeToRecovery)
		}
		if sp.Orders == 0 {
			t.Errorf("seed %d: no orders accepted — plant not actually trading", run.Seed)
		}
		if !strings.Contains(sp.FaultLog, "SwitchFail") || !strings.Contains(sp.FaultLog, "SwitchRecover") {
			t.Errorf("seed %d: fault log missing switch events:\n%s", run.Seed, sp.FaultLog)
		}
	}
}

// TestRunFailoverWANScenario checks the WAN-path run: rain and the hard
// outage must lose frames, and gap recovery over the fiber side channel must
// replay them — every published message accounted for as either live or
// recovered (overlap at datagram boundaries can double-deliver, hence >=).
func TestRunFailoverWANScenario(t *testing.T) {
	rep := RunFailover(SmallScenario(), Seeds(3, 1))
	w := rep.Runs[0].WAN
	if w.LostFrames == 0 {
		t.Error("rain window lost no frames")
	}
	if w.Blackholed == 0 {
		t.Error("hard outage blackholed no frames")
	}
	if w.Requests == 0 || w.Recovered == 0 {
		t.Errorf("gap recovery idle: req=%d recovered=%d", w.Requests, w.Recovered)
	}
	if w.Delivered+w.Recovered < w.Published {
		t.Errorf("messages unaccounted for: live %d + recovered %d < published %d",
			w.Delivered, w.Recovered, w.Published)
	}
	if w.Unrecoverable != 0 {
		t.Errorf("retain window too small for the outage: %d unrecoverable ranges", w.Unrecoverable)
	}
	if !w.RecoveredInRun || w.TimeToRecovery <= 0 {
		t.Errorf("receiver never completed recovery (recovered=%v ttr=%v)", w.RecoveredInRun, w.TimeToRecovery)
	}
}

// TestPullOnGapProtectsQuotes checks the stale-quote protection path inside
// the failover run: when strategies see internal-feed gaps, their pulls must
// cancel working orders (whenever any strategy with live quotes saw a gap).
func TestPullOnGapProtectsQuotes(t *testing.T) {
	// Seeds differ in whether any gap lands on a strategy holding quotes;
	// require the mechanism to fire on at least one of a few seeds.
	rep := RunFailover(SmallScenario(), Seeds(1, 3))
	var pulls, cancels uint64
	for _, run := range rep.Runs {
		pulls += run.Spine.QuotePulls
		cancels += run.Spine.PulledOrders
	}
	if pulls == 0 {
		t.Skip("no seed produced an internal-feed gap at a quoting strategy")
	}
	if cancels == 0 {
		t.Error("quote pulls fired but cancelled nothing")
	}
}

// TestSpineKillBitesEverySeed: E19's victim is a spine the faulted burst
// publishes through, so on every seed the kill blackholes, cuts or purges
// at least one frame.
func TestSpineKillBitesEverySeed(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if sp := runSpineFailover(SmallScenario(), seed); sp.Blackholed+sp.LostFrames+sp.Purged == 0 {
			t.Errorf("seed %d: killing spine%d touched no frame", seed, sp.Victim)
		}
	}
}
