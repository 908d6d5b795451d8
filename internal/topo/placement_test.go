package topo

import (
	"fmt"
	"math/rand"
	"testing"
)

// tradingProblem builds a plant-shaped instance: 1 exchange port (pinned to
// rack 0), nNorm normalizers each feeding a share of strategies, nStrat
// strategies each talking to one gateway, nGw gateways talking back to the
// exchange.
func tradingProblem(nNorm, nStrat, nGw, racks, rackCap int) *PlacementProblem {
	pp := &PlacementProblem{Racks: racks, RackCap: rackCap, Pinned: map[int]int{0: 0}}
	pp.Components = append(pp.Components, Component{Name: "exch", Kind: KindExchangePort})
	normBase := len(pp.Components)
	for i := 0; i < nNorm; i++ {
		pp.Components = append(pp.Components, Component{Name: fmt.Sprintf("n%d", i), Kind: KindNormalizer})
		pp.Demands = append(pp.Demands, Demand{From: 0, To: normBase + i, Weight: 100})
	}
	stratBase := len(pp.Components)
	for i := 0; i < nStrat; i++ {
		pp.Components = append(pp.Components, Component{Name: fmt.Sprintf("s%d", i), Kind: KindStrategy})
		pp.Demands = append(pp.Demands, Demand{From: normBase + i%nNorm, To: stratBase + i, Weight: 50})
	}
	gwBase := len(pp.Components)
	for i := 0; i < nGw; i++ {
		pp.Components = append(pp.Components, Component{Name: fmt.Sprintf("g%d", i), Kind: KindGateway})
		pp.Demands = append(pp.Demands, Demand{From: gwBase + i, To: 0, Weight: 80})
	}
	for i := 0; i < nStrat; i++ {
		pp.Demands = append(pp.Demands, Demand{From: stratBase + i, To: gwBase + i%nGw, Weight: 10})
	}
	return pp
}

func TestFunctionGroupedIsFeasible(t *testing.T) {
	pp := tradingProblem(4, 60, 4, 8, 16)
	p := pp.FunctionGrouped()
	if !feasible(pp, p) {
		t.Fatal("baseline infeasible")
	}
	// Exchange pinned to rack 0.
	if p[0] != 0 {
		t.Fatal("pin violated")
	}
	// All normalizers share racks distinct from strategies.
	normRack := p[1]
	for i, c := range pp.Components {
		if c.Kind == KindStrategy && p[i] == normRack {
			t.Fatal("strategies mixed into the normalizer rack")
		}
	}
}

func TestCostAndLowerBound(t *testing.T) {
	pp := tradingProblem(2, 8, 2, 4, 8)
	p := pp.FunctionGrouped()
	cost := pp.Cost(p)
	// Every demand rack-local: unattainable in general, but no placement
	// can cost less.
	var lb float64
	for _, d := range pp.Demands {
		lb += d.Weight
	}
	if cost < lb {
		t.Fatalf("cost %v below lower bound %v", cost, lb)
	}
	if mh := pp.MeanHops(p); mh < 1 || mh > 3 {
		t.Fatalf("mean hops = %v", mh)
	}
}

func TestImproveReducesCostAndStaysFeasible(t *testing.T) {
	pp := tradingProblem(4, 60, 4, 10, 16)
	base := pp.FunctionGrouped()
	baseCost := pp.Cost(base)
	opt, optCost := pp.Improve(base, 50, rand.New(rand.NewSource(3)))
	if !feasible(pp, opt) {
		t.Fatal("optimized placement infeasible")
	}
	if optCost > baseCost {
		t.Fatalf("optimization worsened cost: %v → %v", baseCost, optCost)
	}
	// Reported cost must equal recomputed cost (incremental deltas are easy
	// to get wrong).
	if recomputed := pp.Cost(opt); absf(recomputed-optCost) > 1e-6 {
		t.Fatalf("incremental cost drifted: reported %v, recomputed %v", optCost, recomputed)
	}
	// The pinned exchange never moved.
	if opt[0] != 0 {
		t.Fatal("pin violated by optimizer")
	}
}

func TestImproveRespectsCapacity(t *testing.T) {
	pp := tradingProblem(2, 20, 2, 6, 7)
	base := pp.FunctionGrouped()
	if !feasible(pp, base) {
		t.Fatal("baseline infeasible")
	}
	opt, _ := pp.Improve(base, 30, rand.New(rand.NewSource(4)))
	if !feasible(pp, opt) {
		t.Fatal("capacity violated")
	}
}

// The §4.1 observation: with many strategies and tight rack capacity, only
// a few strategies can co-locate with their feed sources — optimization
// helps, but the majority still cross the fabric.
func TestOptimizationHelpsOnlyAFewStrategies(t *testing.T) {
	pp := tradingProblem(2, 64, 2, 11, 10)
	base := pp.FunctionGrouped()
	opt, _ := pp.Improve(base, 80, rand.New(rand.NewSource(5)))
	baseHops, optHops := pp.MeanHops(base), pp.MeanHops(opt)
	if optHops >= baseHops {
		t.Fatalf("optimization should help some: %v → %v", baseHops, optHops)
	}
	// But the improvement is bounded well above the all-local lower bound:
	// most strategy traffic still crosses racks.
	lbHops := 1.0
	if (baseHops-optHops)/(baseHops-lbHops) > 0.8 {
		t.Fatalf("optimization closed %v of the gap — too good for a capacity-bound plant (base %v opt %v)",
			(baseHops-optHops)/(baseHops-lbHops), baseHops, optHops)
	}
}

func TestFeasibleRejectsBadPlacements(t *testing.T) {
	pp := tradingProblem(1, 2, 1, 5, 3)
	p := pp.FunctionGrouped()
	bad := append(Placement(nil), p...)
	bad[0] = 1 // violates pin
	if feasible(pp, bad) {
		t.Fatal("pin violation accepted")
	}
	bad2 := append(Placement(nil), p...)
	bad2[1] = 99 // out of range
	if feasible(pp, bad2) {
		t.Fatal("rack out of range accepted")
	}
	// Capacity violation.
	pp2 := tradingProblem(1, 5, 1, 8, 2)
	all0 := make(Placement, len(pp2.Components))
	if feasible(pp2, all0) {
		t.Fatal("capacity violation accepted")
	}
}

// feasible reports whether p respects rack capacities and pins: the oracle
// the placement tests check FunctionGrouped and Improve against.
func feasible(pp *PlacementProblem, p Placement) bool {
	counts := make([]int, pp.Racks)
	for i, r := range p {
		if r < 0 || r >= pp.Racks {
			return false
		}
		counts[r]++
		if counts[r] > pp.RackCap {
			return false
		}
		if pin, ok := pp.Pinned[i]; ok && pin != r {
			return false
		}
	}
	return true
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkPlacementImprove(b *testing.B) {
	pp := tradingProblem(8, 200, 8, 16, 16)
	base := pp.FunctionGrouped()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp.Improve(base, 10, rng)
	}
}
