package topo

import (
	"math/rand"
	"sort"
)

// Placement machinery for the §4.1 remark ("we could try to reduce switch
// hops by placing servers in more optimal ways, but ... the distribution of
// normalizers, trading strategies, and order gateways is not uniform, so we
// could only optimize placement for a few strategies and the majority would
// not benefit") and the §5 Cluster Management direction: a combinatorial
// model of component-to-rack assignment under traffic demands.

// Kind classifies a placed component.
type Kind uint8

// Component kinds.
const (
	KindExchangePort Kind = iota
	KindNormalizer
	KindStrategy
	KindGateway
)

// Component is one placeable server process.
type Component struct {
	Name string
	Kind Kind
}

// Demand is directed traffic volume between two components (indices into
// the component slice), in messages per second.
type Demand struct {
	From, To int
	Weight   float64
}

// PlacementProblem describes the optimization instance.
type PlacementProblem struct {
	Components []Component
	Demands    []Demand
	Racks      int
	RackCap    int
	// Pinned components cannot move (the exchange port lives on the
	// exchange leaf).
	Pinned map[int]int // component → rack
}

// Placement assigns each component a rack.
type Placement []int

// hops returns the switch hops between racks in a leaf-spine: 1 within a
// rack, 3 across racks.
func hops(a, b int) float64 {
	if a == b {
		return 1
	}
	return 3
}

// Cost is the demand-weighted switch-hop count of the placement.
func (pp *PlacementProblem) Cost(p Placement) float64 {
	var c float64
	for _, d := range pp.Demands {
		c += d.Weight * hops(p[d.From], p[d.To])
	}
	return c
}

// FunctionGrouped returns the §4.1 baseline: components grouped by kind
// into contiguous racks (pinned components first, then normalizers,
// strategies, and gateways, each kind starting on a fresh rack). It panics
// if the racks cannot hold the components — an instance-sizing bug.
func (pp *PlacementProblem) FunctionGrouped() Placement {
	p := make(Placement, len(pp.Components))
	counts := make([]int, pp.Racks)
	var pinned []int
	for i := range pp.Pinned {
		pinned = append(pinned, i)
	}
	sort.Ints(pinned)
	for _, i := range pinned {
		p[i] = pp.Pinned[i]
		counts[pp.Pinned[i]]++
	}
	rack := 0
	advance := func() {
		for rack < pp.Racks && counts[rack] >= pp.RackCap {
			rack++
		}
		if rack >= pp.Racks {
			panic("topo: rack capacity exhausted in FunctionGrouped")
		}
	}
	for _, k := range []Kind{KindExchangePort, KindNormalizer, KindStrategy, KindGateway} {
		fresh := false
		for i, c := range pp.Components {
			if c.Kind != k {
				continue
			}
			if _, ok := pp.Pinned[i]; ok {
				continue
			}
			if !fresh {
				// Start each function on its own rack.
				if counts[rack] > 0 {
					rack++
				}
				fresh = true
			}
			advance()
			p[i] = rack
			counts[rack]++
		}
	}
	return p
}

// Improve runs first-improvement hill climbing over single-component moves
// and pairwise swaps, starting from p, for at most iters passes. It returns
// the improved placement and its cost.
func (pp *PlacementProblem) Improve(p Placement, iters int, rng *rand.Rand) (Placement, float64) {
	best := append(Placement(nil), p...)
	counts := make([]int, pp.Racks)
	for _, r := range best {
		counts[r]++
	}
	cost := pp.Cost(best)
	// Per-component demand adjacency for incremental cost deltas.
	adj := make([][]Demand, len(pp.Components))
	for _, d := range pp.Demands {
		adj[d.From] = append(adj[d.From], d)
		adj[d.To] = append(adj[d.To], d)
	}
	delta := func(i, newRack int) float64 {
		var dd float64
		old := best[i]
		for _, d := range adj[i] {
			other := d.From
			if other == i {
				other = d.To
			}
			if other == i {
				continue
			}
			or := best[other]
			dd += d.Weight * (hops(newRack, or) - hops(old, or))
		}
		return dd
	}
	for pass := 0; pass < iters; pass++ {
		improved := false
		order := rng.Perm(len(best))
		for _, i := range order {
			if _, pinned := pp.Pinned[i]; pinned {
				continue
			}
			// Try moving i to each rack with space.
			for r := 0; r < pp.Racks; r++ {
				if r == best[i] || counts[r] >= pp.RackCap {
					continue
				}
				if dd := delta(i, r); dd < -1e-9 {
					counts[best[i]]--
					counts[r]++
					best[i] = r
					cost += dd
					improved = true
					break
				}
			}
		}
		// Pairwise swaps between full racks.
		for _, i := range order {
			if _, pinned := pp.Pinned[i]; pinned {
				continue
			}
			j := order[(rng.Intn(len(order)))]
			if i == j || best[i] == best[j] {
				continue
			}
			if _, pinned := pp.Pinned[j]; pinned {
				continue
			}
			di := delta(i, best[j])
			// Apply i's move virtually for j's delta.
			ri, rj := best[i], best[j]
			best[i] = rj
			dj := delta(j, ri)
			best[i] = ri
			if di+dj < -1e-9 {
				best[i], best[j] = rj, ri
				cost += di + dj
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best, cost
}

// MeanHops returns the demand-weighted average switch-hop count.
func (pp *PlacementProblem) MeanHops(p Placement) float64 {
	var w float64
	for _, d := range pp.Demands {
		w += d.Weight
	}
	if w == 0 {
		return 0
	}
	return pp.Cost(p) / w
}
