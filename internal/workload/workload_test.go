package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tradenet/internal/sim"
)

func TestPoissonRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Poisson{Rate: 100_000} // 100k events/s
	var total sim.Duration
	n := 100_000
	for i := 0; i < n; i++ {
		total += p.Next(rng)
	}
	meanNs := total.Nanoseconds() / float64(n)
	// Mean inter-arrival should be ~10 µs.
	if meanNs < 9_500 || meanNs > 10_500 {
		t.Fatalf("mean inter-arrival = %vns, want ~10000", meanNs)
	}
}

func TestPoissonValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate should panic")
		}
	}()
	Poisson{}.Next(rand.New(rand.NewSource(1)))
}

func TestMMPPValidation(t *testing.T) {
	for _, bad := range [][]MMPPState{
		nil,
		{{Rate: 0, MeanDwell: sim.Second}},
		{{Rate: 1, MeanDwell: 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("states %v should panic", bad)
				}
			}()
			NewMMPP(bad...)
		}()
	}
}

func TestMMPPLongRunRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Quiet 100k/s for 9 ms, burst 1M/s for 1 ms → long-run ≈ 190k/s.
	m := NewMMPP(
		MMPPState{Rate: 100_000, MeanDwell: 9 * sim.Millisecond},
		MMPPState{Rate: 1_000_000, MeanDwell: sim.Millisecond},
	)
	var total sim.Duration
	n := 200_000
	for i := 0; i < n; i++ {
		total += m.Next(rng)
	}
	rate := float64(n) / total.Seconds()
	if rate < 160_000 || rate > 220_000 {
		t.Fatalf("long-run rate = %.0f/s, want ~190k", rate)
	}
}

func TestMMPPBurstinessExceedsPoisson(t *testing.T) {
	// Index of dispersion (var/mean of window counts) is 1 for Poisson and
	// must be substantially larger for a bursty MMPP.
	rng := rand.New(rand.NewSource(3))
	window := sim.Millisecond
	counts := func(p Process) []float64 {
		var c []float64
		cur := 0.0
		var t, next sim.Time
		next = sim.Time(window)
		for t < sim.Time(2*sim.Second) {
			d := p.Next(rng)
			t = t.Add(d)
			for t >= next {
				c = append(c, cur)
				cur = 0
				next += sim.Time(window)
			}
			cur++
		}
		return c
	}
	dispersion := func(c []float64) float64 {
		var sum, sq float64
		for _, v := range c {
			sum += v
		}
		mean := sum / float64(len(c))
		for _, v := range c {
			sq += (v - mean) * (v - mean)
		}
		return sq / float64(len(c)) / mean
	}
	dp := dispersion(counts(Poisson{Rate: 100_000}))
	dm := dispersion(counts(NewMMPP(
		MMPPState{Rate: 50_000, MeanDwell: 5 * sim.Millisecond},
		MMPPState{Rate: 500_000, MeanDwell: sim.Millisecond},
	)))
	if dp > 2 {
		t.Fatalf("Poisson dispersion = %.2f, want ~1", dp)
	}
	if dm < 5*dp {
		t.Fatalf("MMPP dispersion %.2f not ≫ Poisson %.2f", dm, dp)
	}
}

func TestGenerateSchedulesWithinBounds(t *testing.T) {
	s := sim.NewScheduler(4)
	var times []sim.Time
	start, end := sim.Time(sim.Millisecond), sim.Time(2*sim.Millisecond)
	Generate(s, Poisson{Rate: 1_000_000}, start, end, func() {
		times = append(times, s.Now())
	})
	s.Run()
	if len(times) == 0 {
		t.Fatal("no arrivals")
	}
	for _, tt := range times {
		if tt < start || tt >= end {
			t.Fatalf("arrival %v outside [%v,%v)", tt, start, end)
		}
	}
	// ~1000 arrivals expected in 1 ms at 1M/s.
	if len(times) < 800 || len(times) > 1200 {
		t.Fatalf("arrivals = %d, want ~1000", len(times))
	}
}

func TestTimesMatchesGenerate(t *testing.T) {
	count := Times(rand.New(rand.NewSource(5)), Poisson{Rate: 500_000},
		0, sim.Time(10*sim.Millisecond), func(sim.Time) {})
	if count < 4_000 || count > 6_000 {
		t.Fatalf("count = %d, want ~5000", count)
	}
}

func TestIntradayShapeForm(t *testing.T) {
	open, mid, close := IntradayShape(0), IntradayShape(0.5), IntradayShape(1)
	if open < 2.5 || open > 4 {
		t.Fatalf("open shape = %v", open)
	}
	if mid < 0.95 || mid > 1.2 {
		t.Fatalf("midday shape = %v", mid)
	}
	if close < 2 || close > 3.5 {
		t.Fatalf("close shape = %v", close)
	}
	if open <= close {
		t.Fatal("open should exceed close (classic U asymmetry)")
	}
	if IntradayShape(-0.1) != 0 || IntradayShape(1.1) != 0 {
		t.Fatal("outside session should be zero")
	}
}

func TestFig2bDayMatchesPaperStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	day := Fig2bDay(rng, DefaultFig2b())

	openSec := int(SessionOpenHour * 3600)
	closeSec := int(SessionCloseHour * 3600)
	inSession := func(i int) bool { return i >= openSec && i < closeSec }

	med := day.Median(inSession)
	if med < 300_000 || med > 400_000 {
		t.Fatalf("session median = %d, want >300k (paper) and <400k", med)
	}
	_, busiest := day.Busiest()
	if busiest < 1_200_000 || busiest > 1_900_000 {
		t.Fatalf("busiest second = %d, want ≈1.5M", busiest)
	}
	// Activity confined to the session (plus the small pre-open trickle).
	for i := 0; i < openSec-300; i++ {
		if day.Count(i) != 0 {
			t.Fatalf("pre-market activity at second %d", i)
		}
	}
	for i := closeSec; i < day.Len(); i++ {
		if day.Count(i) != 0 {
			t.Fatalf("post-close activity at second %d", i)
		}
	}
}

func TestFig2cSecondMatchesPaperStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var arrivals int
	w := Fig2cSecond(rng, DefaultFig2c(), func(sim.Time) { arrivals++ })

	if w.Len() != 10_000 || w.Width() != 100*sim.Microsecond {
		t.Fatalf("window structure: len=%d width=%v", w.Len(), w.Width())
	}
	total := w.Total()
	if int64(arrivals) != total {
		t.Fatalf("callback count %d != window total %d", arrivals, total)
	}
	if total < 1_300_000 || total > 1_700_000 {
		t.Fatalf("total = %d, want ≈1.5M", total)
	}
	med := w.Median(nil)
	if med < 110 || med > 150 {
		t.Fatalf("median 100µs window = %d, want ≈129", med)
	}
	_, busiest := w.Busiest()
	if busiest < 700 || busiest > 1_600 {
		t.Fatalf("busiest 100µs window = %d, want ≈1066", busiest)
	}
	// The defining property: microburst peak far exceeds the uniform rate.
	if busiest < 4*med {
		t.Fatalf("peak/median = %d/%d: insufficient burstiness", busiest, med)
	}
}

func TestFig2aSeriesGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := DefaultFig2a()
	series := Fig2aSeries(rng, cfg)
	if len(series) != cfg.Years*cfg.DaysPerYear {
		t.Fatalf("len = %d", len(series))
	}
	// Compare first and last quarters' medians: growth ≈ 6x overall means
	// roughly 4–8x between endpoints' neighborhoods.
	q := len(series) / 4
	firstQ := median(series[:q])
	lastQ := median(series[len(series)-q:])
	growth := lastQ / firstQ
	if growth < 3 || growth > 8 {
		t.Fatalf("quartile growth = %.1fx", growth)
	}
	// Absolute scale: "tens of billions of events per day".
	if lastQ < 5e10 || lastQ > 5e11 {
		t.Fatalf("recent daily volume = %.2e", lastQ)
	}
	// Average rate claim: "more than 500k events per second".
	if rate := AvgRatePerSecond(lastQ); rate < 500_000 {
		t.Fatalf("recent avg rate = %.0f/s, want >500k", rate)
	}
}

func median(v []DayVolume) float64 {
	c := make([]float64, len(v))
	for i := range v {
		c[i] = v[i].Count
	}
	sort.Float64s(c)
	return c[len(c)/2]
}

func TestPerEventBudget(t *testing.T) {
	// Paper §3: 1.5M events/s ⇒ ≈650 ns; 1066 events/100 µs ⇒ ≈100 ns.
	b := PerEventBudget(1_500_000, sim.Second)
	if ns := b.Nanoseconds(); math.Abs(ns-666) > 10 {
		t.Fatalf("1.5M/s budget = %vns, want ≈666", ns)
	}
	b = PerEventBudget(1066, 100*sim.Microsecond)
	if ns := b.Nanoseconds(); math.Abs(ns-93.8) > 2 {
		t.Fatalf("1066/100µs budget = %vns, want ≈94", ns)
	}
	if PerEventBudget(0, sim.Second) <= 0 {
		t.Fatal("zero events should yield effectively infinite budget")
	}
}

func TestLogNormalMedianOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var vals []float64
	for i := 0; i < 20_001; i++ {
		vals = append(vals, LogNormal(rng, 0.3))
	}
	sort.Float64s(vals)
	med := vals[len(vals)/2]
	if med < 0.95 || med > 1.05 {
		t.Fatalf("median = %v, want ~1", med)
	}
}

func TestFigureGeneratorsDeterministic(t *testing.T) {
	a := Fig2cSecond(rand.New(rand.NewSource(10)), DefaultFig2c(), nil)
	b := Fig2cSecond(rand.New(rand.NewSource(10)), DefaultFig2c(), nil)
	for i := 0; i < a.Len(); i++ {
		if a.Count(i) != b.Count(i) {
			t.Fatalf("nondeterministic at window %d", i)
		}
	}
}

func BenchmarkMMPPNext(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := DefaultFig2c().Process()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Next(rng)
	}
}

func TestCorrelatedFeedsBurstTogether(t *testing.T) {
	// Two correlated feeds vs two independent MMPPs: the correlated pair's
	// windowed counts must show strong positive correlation, the
	// independent pair's near zero.
	window := sim.Millisecond
	horizon := sim.Time(2 * sim.Second)
	nWin := int(horizon / sim.Time(window))

	countsCorrelated := func() ([]int64, []int64) {
		sched := sim.NewScheduler(13)
		a, b := make([]int64, nWin), make([]int64, nWin)
		cf := NewCorrelatedFeeds([]float64{50_000, 50_000}, 10,
			20*sim.Millisecond, 5*sim.Millisecond)
		cf.Generate(sched, 0, horizon, func(feed int) {
			w := int(sched.Now() / sim.Time(window))
			if w >= nWin {
				return
			}
			if feed == 0 {
				a[w]++
			} else {
				b[w]++
			}
		})
		sched.Run()
		return a, b
	}
	countsIndependent := func() ([]int64, []int64) {
		sched := sim.NewScheduler(14)
		a, b := make([]int64, nWin), make([]int64, nWin)
		for i := 0; i < 2; i++ {
			m := NewMMPP(
				MMPPState{Rate: 50_000, MeanDwell: 20 * sim.Millisecond},
				MMPPState{Rate: 500_000, MeanDwell: 5 * sim.Millisecond},
			)
			dst := a
			if i == 1 {
				dst = b
			}
			d := dst
			Generate(sched, m, 0, horizon, func() {
				w := int(sched.Now() / sim.Time(window))
				if w < nWin {
					d[w]++
				}
			})
		}
		sched.Run()
		return a, b
	}

	ca, cb := countsCorrelated()
	corr := correlation(ca, cb)
	ia, ib := countsIndependent()
	indep := correlation(ia, ib)
	if corr < 0.5 {
		t.Fatalf("correlated feeds correlation = %.2f, want strong", corr)
	}
	if indep > 0.3 {
		t.Fatalf("independent feeds correlation = %.2f, want weak", indep)
	}
	if corr <= indep {
		t.Fatal("correlated must exceed independent")
	}
}

func TestCorrelatedFeedsValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewCorrelatedFeeds(nil, 2, sim.Second, sim.Second) },
		func() { NewCorrelatedFeeds([]float64{1}, 0.5, sim.Second, sim.Second) },
		func() { NewCorrelatedFeeds([]float64{1}, 2, 0, sim.Second) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestCorrelationStatistic(t *testing.T) {
	if c := correlation([]int64{1, 2, 3}, []int64{2, 4, 6}); c < 0.999 {
		t.Fatalf("perfect correlation = %v", c)
	}
	if c := correlation([]int64{1, 2, 3}, []int64{3, 2, 1}); c > -0.999 {
		t.Fatalf("perfect anticorrelation = %v", c)
	}
	if correlation([]int64{1, 1}, []int64{2, 3}) != 0 {
		t.Fatal("zero-variance input should yield 0")
	}
	if correlation([]int64{1}, []int64{1, 2}) != 0 {
		t.Fatal("length mismatch should yield 0")
	}
}

// correlation computes the Pearson correlation between two count series —
// the test statistic for burst coupling.
func correlation(a, b []int64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += float64(a[i])
		sb += float64(b[i])
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := float64(a[i])-ma, float64(b[i])-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}
