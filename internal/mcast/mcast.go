// Package mcast manages IP multicast group state for feed distribution: the
// allocation of group addresses, the mapping from market-data partitions to
// groups ("exchanges partition this feed across multiple multicast groups",
// §2), and the capacity arithmetic against switch mroute tables that drives
// the paper's §3 multicast-trends argument.
package mcast

import (
	"fmt"
	"math"

	"tradenet/internal/market"
	"tradenet/internal/pkt"
)

// Allocator hands out multicast group addresses from an administrative
// block. Distinct blocks keep feed families (raw exchange feeds, normalized
// internal feeds) in disjoint address ranges.
type Allocator struct {
	block uint8
	next  uint16
}

// NewAllocator returns an allocator over block.
func NewAllocator(block uint8) *Allocator { return &Allocator{block: block} }

// Next allocates the next group address.
func (a *Allocator) Next() pkt.IP4 {
	g := pkt.MulticastGroup(a.block, a.next)
	a.next++
	return g
}

// Allocated returns how many groups have been handed out.
func (a *Allocator) Allocated() int { return int(a.next) }

// Scheme selects how instruments map onto feed partitions. The paper lists
// both styles: "some exchanges partition based on the name of the
// instrument (e.g. alphabetical by stock ticker's first letter), while
// others partition based on the type of instrument".
type Scheme uint8

// Partitioning schemes.
const (
	// ByAlpha partitions by the ticker's first letter (26 partitions).
	ByAlpha Scheme = iota
	// ByClass partitions by instrument class (equity/ETF/option/future).
	ByClass
	// ByHash partitions by a hash of the symbol id into N buckets —
	// the internal scheme normalizers repartition into, scalable to any
	// partition count.
	ByHash
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case ByAlpha:
		return "by-alpha"
	case ByClass:
		return "by-class"
	case ByHash:
		return "by-hash"
	}
	return "unknown"
}

// Partitioner maps instruments to partition indices under a scheme.
type Partitioner struct {
	Scheme Scheme
	// N is the partition count for ByHash; ignored otherwise.
	N int
	u *market.Universe
}

// NewPartitioner builds a partitioner over the universe.
func NewPartitioner(u *market.Universe, scheme Scheme, n int) *Partitioner {
	if scheme == ByHash && n <= 0 {
		panic("mcast: ByHash needs a positive partition count")
	}
	return &Partitioner{Scheme: scheme, N: n, u: u}
}

// Partitions returns the number of partitions the scheme yields.
func (p *Partitioner) Partitions() int {
	switch p.Scheme {
	case ByAlpha:
		return 26
	case ByClass:
		return 4
	default:
		return p.N
	}
}

// Partition returns the partition index for a symbol.
func (p *Partitioner) Partition(id market.SymbolID) int {
	switch p.Scheme {
	case ByAlpha:
		in := p.u.Get(id)
		if len(in.Ticker) == 0 {
			return 0
		}
		c := in.Ticker[0]
		if c >= 'a' {
			c -= 'a' - 'A'
		}
		if c < 'A' || c > 'Z' {
			return 0
		}
		return int(c - 'A')
	case ByClass:
		return int(p.u.Get(id).Class)
	default:
		// The id times 2^64/φ, wrapped to 64 bits, modulo N. This is not
		// Fibonacci hashing, which keeps the product's top bits: % N keeps
		// its low ones. For a power-of-two N the partition depends only on
		// the id's low log2(N) bits, which the odd multiplier permutes, so
		// any N consecutive ids land in N distinct partitions.
		return int((uint64(id) * 11400714819323198485) % uint64(p.N))
	}
}

// Map binds partitions to allocated multicast groups.
type Map struct {
	part   *Partitioner
	groups []pkt.IP4
}

// NewMap allocates one group per partition from alloc.
func NewMap(part *Partitioner, alloc *Allocator) *Map {
	m := &Map{part: part}
	for i := 0; i < part.Partitions(); i++ {
		m.groups = append(m.groups, alloc.Next())
	}
	return m
}

// Group returns the multicast group carrying symbol id's partition.
func (m *Map) Group(id market.SymbolID) pkt.IP4 {
	return m.groups[m.part.Partition(id)]
}

// GroupByIndex returns partition i's group.
func (m *Map) GroupByIndex(i int) pkt.IP4 { return m.groups[i] }

// Groups returns all groups in partition order.
func (m *Map) Groups() []pkt.IP4 { return m.groups }

// Partitioner returns the underlying partitioner.
func (m *Map) Partitioner() *Partitioner { return m.part }

// CapacityPlan is the E11 arithmetic: how a partition count fares against a
// switch generation's mroute table.
type CapacityPlan struct {
	Partitions  int
	TableSize   int
	Hardware    int
	Software    int // partitions relegated to the software slow path
	Utilization float64
}

// Plan computes the placement of partitions onto a table of the given size.
func Plan(partitions, tableSize int) CapacityPlan {
	p := CapacityPlan{Partitions: partitions, TableSize: tableSize}
	if partitions <= tableSize {
		p.Hardware = partitions
	} else {
		p.Hardware = tableSize
		p.Software = partitions - tableSize
	}
	if tableSize > 0 {
		p.Utilization = float64(p.Hardware) / float64(tableSize)
	}
	return p
}

// String renders the plan for the experiment harness.
func (p CapacityPlan) String() string {
	return fmt.Sprintf("partitions=%d table=%d hw=%d sw=%d util=%.0f%%",
		p.Partitions, p.TableSize, p.Hardware, p.Software, p.Utilization*100)
}

// PartitionGrowth models the §3 observation that one representative
// strategy's partition count "roughly doubled from around 600 to over 1300
// over the past two years": a geometric interpolation between those
// endpoints.
func PartitionGrowth(startPartitions int, months int, endPartitions int, totalMonths int) int {
	if months <= 0 {
		return startPartitions
	}
	if months >= totalMonths {
		return endPartitions
	}
	ratio := float64(endPartitions) / float64(startPartitions)
	frac := float64(months) / float64(totalMonths)
	return int(float64(startPartitions) * math.Pow(ratio, frac))
}
