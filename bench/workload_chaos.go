package main

import (
	"fmt"

	"tradenet/internal/core"
)

// chaosJob is chaos-small: the four fault-injection experiments on
// SmallScenario, one seed per call, sequentially. Plant construction,
// timer cancel/re-arm, loss draws, retransmits, FEC and journal replication
// all happen inside the measured phase.
type chaosJob struct {
	env *runEnv
	sc  core.Scenario

	e19 []core.FailoverReport
	e21 []core.OEFailoverReport
	e22 []core.WANRedundancyReport
	e23 []core.ExchangeFailoverReport
}

func (j *chaosJob) setup() { j.sc = core.SmallScenario() }

func (j *chaosJob) run() {
	env := j.env
	for i := 0; i < env.scale.chaosSeeds; i++ {
		seed := []int64{env.seed + int64(i)}
		env.span("core.RunFailover", func() { j.e19 = append(j.e19, core.RunFailover(j.sc, seed)) })
		env.span("core.RunOEFailover", func() { j.e21 = append(j.e21, core.RunOEFailover(j.sc, seed)) })
		env.span("core.RunWANRedundancy", func() { j.e22 = append(j.e22, core.RunWANRedundancy(j.sc, seed)) })
		env.span("core.RunExchangeFailover", func() { j.e23 = append(j.e23, core.RunExchangeFailover(j.sc, seed)) })
	}
}

// verify counts one operation per seed per experiment. The E19 spine leg is
// judged on the fault having bitten, the fabric having reconverged and every
// replay request having been served — not on RecoveredInRun, which is false
// for about one seed in six (a blackholed tail burst that no later datagram
// exposes; see README). How many seeds did recover is part of the simulated
// fingerprint.
func (j *chaosJob) verify() {
	env := j.env
	var spineRecovered, orders, replayed, live uint64
	for i := range j.e19 {
		seed := env.seed + int64(i)
		r := j.e19[i].Runs[0]
		sp := r.Spine
		env.check(r.WAN.RecoveredInRun &&
			sp.Blackholed+sp.LostFrames+sp.Purged > 0 && sp.Reconvergences == 2 &&
			sp.ServedDgrams == sp.GapRequests && sp.RefusedReqs == 0 && sp.Orders > 0,
			"seed %d E19: wan recovered=%v spine %+v", seed, r.WAN.RecoveredInRun, sp)
		if sp.RecoveredInRun {
			spineRecovered++
		}
		orders += sp.Orders
		replayed += r.WAN.Recovered

		env.check(j.e21[i].AllInvariantsOK(), "seed %d E21: invariant violated", seed)

		w := j.e22[i].Runs[0]
		ok := true
		for _, c := range append(append([]core.WANRedundancyRun(nil), w.Matrix...), w.Designs...) {
			// Non-zero goodput, and nothing delivered that was not
			// published: the residual loss is Published − Live − Recovered.
			if c.LiveMsgs == 0 || c.LiveMsgs+c.Recovered > c.Published {
				ok = false
			}
			live += c.LiveMsgs
		}
		env.check(ok, "seed %d E22: goodput or loss accounting broken", seed)

		env.check(j.e23[i].AllInvariantsOK(), "seed %d E23: invariant violated", seed)
	}
	env.sim = fmt.Sprintf("e19_spine_recovered=%d/%d e19_orders=%d e19_wan_replayed=%d e22_live_msgs=%d",
		spineRecovered, len(j.e19), orders, replayed, live)
}
