package mcast

import (
	"strings"
	"testing"
	"testing/quick"

	"tradenet/internal/market"
)

func universe(t *testing.T) *market.Universe {
	t.Helper()
	u := market.NewUniverse()
	u.Add("AAPL", market.Equity, 0)
	u.Add("amzn", market.Equity, 0) // lowercase exercises case folding
	u.Add("SPY", market.ETF, 0)
	u.Add("ZION", market.Equity, 0)
	u.Add("9988", market.Equity, 0) // non-alpha ticker
	aapl, _ := u.Lookup("AAPL")
	u.Add("AAPL C150", market.Option, aapl)
	return u
}

func TestAllocatorSequentialDistinct(t *testing.T) {
	a := NewAllocator(2)
	g1, g2 := a.Next(), a.Next()
	if g1 == g2 {
		t.Fatal("duplicate groups")
	}
	if !g1.IsMulticast() || g1[1] != 2 {
		t.Fatalf("group = %v", g1)
	}
	if a.Allocated() != 2 {
		t.Fatalf("allocated = %d", a.Allocated())
	}
	// Different blocks never collide.
	b := NewAllocator(3)
	if b.Next() == g1 {
		t.Fatal("cross-block collision")
	}
}

func TestByAlphaPartitioning(t *testing.T) {
	u := universe(t)
	p := NewPartitioner(u, ByAlpha, 0)
	if p.Partitions() != 26 {
		t.Fatalf("partitions = %d", p.Partitions())
	}
	aapl, _ := u.Lookup("AAPL")
	amzn, _ := u.Lookup("amzn")
	zion, _ := u.Lookup("ZION")
	num, _ := u.Lookup("9988")
	if p.Partition(aapl) != 0 || p.Partition(amzn) != 0 {
		t.Fatal("A-tickers should share partition 0 regardless of case")
	}
	if p.Partition(zion) != 25 {
		t.Fatalf("ZION partition = %d", p.Partition(zion))
	}
	if p.Partition(num) != 0 {
		t.Fatal("non-alpha tickers fold to partition 0")
	}
}

func TestByClassPartitioning(t *testing.T) {
	u := universe(t)
	p := NewPartitioner(u, ByClass, 0)
	if p.Partitions() != 4 {
		t.Fatalf("partitions = %d", p.Partitions())
	}
	spy, _ := u.Lookup("SPY")
	opt, _ := u.Lookup("AAPL C150")
	if p.Partition(spy) != int(market.ETF) || p.Partition(opt) != int(market.Option) {
		t.Fatal("class partition wrong")
	}
}

func TestByHashPartitioningUniform(t *testing.T) {
	u := market.NewUniverse()
	for i := 0; i < 26; i++ {
		for j := 0; j < 40; j++ {
			u.Add(string(rune('A'+i))+string(rune('A'+j%26))+string(rune('0'+j/26)), market.Equity, 0)
		}
	}
	p := NewPartitioner(u, ByHash, 64)
	counts := make([]int, 64)
	for _, in := range u.All() {
		part := p.Partition(in.ID)
		if part < 0 || part >= 64 {
			t.Fatalf("partition out of range: %d", part)
		}
		counts[part]++
	}
	// 1040 symbols over 64 partitions ≈ 16 each; assert rough uniformity.
	for i, c := range counts {
		if c < 4 || c > 40 {
			t.Fatalf("partition %d has %d symbols — skewed", i, c)
		}
	}
}

func TestByHashValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ByHash without N should panic")
		}
	}()
	NewPartitioner(market.NewUniverse(), ByHash, 0)
}

func TestSchemeNames(t *testing.T) {
	if ByAlpha.String() == "unknown" || ByClass.String() == "unknown" || ByHash.String() == "unknown" {
		t.Fatal("scheme unnamed")
	}
	if Scheme(99).String() != "unknown" {
		t.Fatal("bogus scheme named")
	}
}

func TestMapStableAndComplete(t *testing.T) {
	u := universe(t)
	p := NewPartitioner(u, ByAlpha, 0)
	m := NewMap(p, NewAllocator(1))
	if len(m.Groups()) != 26 {
		t.Fatalf("groups = %d", len(m.Groups()))
	}
	aapl, _ := u.Lookup("AAPL")
	if m.GroupByIndex(p.Partition(aapl)) != m.GroupByIndex(0) {
		t.Fatal("group lookup inconsistent")
	}
	if m.Partitioner() != p {
		t.Fatal("partitioner accessor")
	}
	// All 26 groups distinct.
	seen := map[[4]byte]bool{}
	for _, g := range m.Groups() {
		if seen[g] {
			t.Fatal("duplicate group in map")
		}
		seen[g] = true
	}
}

func TestPlanArithmetic(t *testing.T) {
	p := Plan(600, 4096)
	if p.Hardware != 600 || p.Software != 0 {
		t.Fatalf("plan = %+v", p)
	}
	// The §3 squeeze: 1300 partitions per strategy, a handful of strategies
	// sharing one ToR, and the table overflows.
	p = Plan(5200, 4096)
	if p.Hardware != 4096 || p.Software != 1104 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Utilization != 1.0 {
		t.Fatalf("utilization = %v", p.Utilization)
	}
	if !strings.Contains(p.String(), "sw=1104") {
		t.Fatalf("String = %q", p.String())
	}
	if z := Plan(10, 0); z.Utilization != 0 {
		t.Fatal("zero table utilization should be 0")
	}
}

// Property: Plan conserves partitions and never exceeds the table.
func TestPlanConservationProperty(t *testing.T) {
	f := func(parts, table uint16) bool {
		p := Plan(int(parts), int(table))
		return p.Hardware+p.Software == int(parts) && p.Hardware <= int(table)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionGrowthEndpoints(t *testing.T) {
	// §3: ~600 → >1300 over two years (24 months).
	if got := PartitionGrowth(600, 0, 1300, 24); got != 600 {
		t.Fatalf("month 0 = %d", got)
	}
	if got := PartitionGrowth(600, 24, 1300, 24); got != 1300 {
		t.Fatalf("month 24 = %d", got)
	}
	mid := PartitionGrowth(600, 12, 1300, 24)
	// Geometric midpoint ≈ sqrt(600*1300) ≈ 883.
	if mid < 850 || mid < 600 || mid > 950 {
		t.Fatalf("month 12 = %d, want ≈883", mid)
	}
	// Monotone.
	prev := 0
	for mo := 0; mo <= 24; mo++ {
		v := PartitionGrowth(600, mo, 1300, 24)
		if v < prev {
			t.Fatalf("growth not monotone at month %d", mo)
		}
		prev = v
	}
}
