package core

import (
	"runtime"
	"testing"

	"tradenet/internal/sim"
)

// TestMallocBudgetPerStrategyMessage holds the heap cost of a strategy
// consuming a normalized message to a stated ceiling. On the small Design 3,
// after a first burst has built the books and filled the pools, a strategy
// message costs 0.17 allocations: amortized growth (order slabs, id indexes
// and level slices doubling as the books deepen), the normalizers' per-frame
// bookkeeping upstream, and the order path of the decisions that fire. The
// ceiling sits half as much again above that, and well below the 0.66 the
// same run cost when every resting order was a heap object indexed by a Go
// map per book and another per strategy: a change that makes book storage
// allocate per order again fails here, not in a benchmark run weeks later.
func TestMallocBudgetPerStrategyMessage(t *testing.T) {
	const (
		bursts   = 6
		perBurst = 2000
		ceiling  = 0.26
	)
	if raceEnabled {
		t.Skip("under -race a sync.Pool drops a quarter of its Puts at random, so the frame pools re-allocate: 0.55 allocations a message against 0.17 without, none of them the program's")
	}
	d := NewDesign3(SmallScenario(), 0)
	msgsIn := func() (n uint64) {
		for _, s := range d.Strats {
			n += s.MsgsIn
		}
		return n
	}
	var m0, m1 runtime.MemStats
	var in0 uint64
	start := sim.Time(5 * sim.Millisecond) // let logons drain
	for b := 0; b < bursts; b++ {
		d.Sched.At(start.Add(sim.Duration(b)*2*sim.Millisecond), func() {
			d.Ex.PublishBurst(d.Sched.Rand(), perBurst)
		})
	}
	// The first burst has drained well before the second starts.
	d.Sched.At(start.Add(2*sim.Millisecond-sim.Microsecond), func() {
		in0 = msgsIn()
		runtime.ReadMemStats(&m0)
	})
	d.Sched.Run()
	runtime.ReadMemStats(&m1)
	msgs := msgsIn() - in0
	if in0 == 0 || msgs == 0 {
		t.Fatalf("strategies consumed %d messages in the first burst and %d after it", in0, msgs)
	}
	ratio := float64(m1.Mallocs-m0.Mallocs) / float64(msgs)
	t.Logf("%d heap allocations for %d strategy messages = %.3f per message", m1.Mallocs-m0.Mallocs, msgs, ratio)
	if ratio > ceiling {
		t.Errorf("%.3f heap allocations per strategy message, ceiling %.2f", ratio, ceiling)
	}
}
