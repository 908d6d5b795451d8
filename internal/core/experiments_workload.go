package core

import (
	"fmt"
	"math/rand"
	"strings"

	"tradenet/internal/feed"
	"tradenet/internal/metrics"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/workload"
)

// Table1Row is one feed's statistics.
type Table1Row struct {
	Feed                  string
	Min, Avg, Median, Max int64
	PaperMin, PaperAvg    int64
	PaperMedian, PaperMax int64
}

// RunTable1 generates mid-day traffic for each exchange variant and
// measures frame lengths (inclusive of Ethernet, IP, and UDP headers, as in
// the paper).
func RunTable1(frames int, seed int64) Sweep[Table1Row] {
	rng := rand.New(rand.NewSource(seed))
	src := pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 30000}
	grp := pkt.IP4{239, 1, 0, 1}
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 30001}

	paper := map[string][4]int64{
		"Exchange A": {73, 92, 89, 1514},
		"Exchange B": {64, 113, 76, 1067},
		"Exchange C": {81, 151, 101, 1442},
	}
	out := Sweep[Table1Row]{head: "Table 1: frame lengths, measured (paper)\n", cols: table1Cols}
	for _, v := range []*feed.Variant{feed.ExchangeA, feed.ExchangeB, feed.ExchangeC} {
		g := feed.NewFrameGen(v, src, dst)
		h := metrics.NewHistogram()
		for i := 0; i < frames; i++ {
			frame, _ := g.Next(rng)
			h.Observe(int64(len(frame)))
		}
		s := h.Summarize()
		p := paper[v.Name]
		out.Rows = append(out.Rows, Table1Row{
			Feed: v.Name, Min: s.Min, Avg: int64(s.Mean + 0.5), Median: s.Median, Max: s.Max,
			PaperMin: p[0], PaperAvg: p[1], PaperMedian: p[2], PaperMax: p[3],
		})
	}
	return out
}

var table1Cols = []column[Table1Row]{
	{"Feed", func(r Table1Row) any { return r.Feed }},
	{"min", func(r Table1Row) any { return fmt.Sprintf("%d (%d)", r.Min, r.PaperMin) }},
	{"avg", func(r Table1Row) any { return fmt.Sprintf("%d (%d)", r.Avg, r.PaperAvg) }},
	{"median", func(r Table1Row) any { return fmt.Sprintf("%d (%d)", r.Median, r.PaperMedian) }},
	{"max", func(r Table1Row) any { return fmt.Sprintf("%d (%d)", r.Max, r.PaperMax) }},
}

// Fig2aResult is E2: the multi-year daily event-count series.
type Fig2aResult struct {
	Series        []workload.DayVolume
	FirstYearMed  float64
	LastYearMed   float64
	Growth        float64
	AvgRatePerSec float64
}

// RunFig2a generates the five-year growth series.
func RunFig2a(seed int64) Fig2aResult {
	cfg := workload.DefaultFig2a()
	series := workload.Fig2aSeries(rand.New(rand.NewSource(seed)), cfg)
	year := cfg.DaysPerYear
	med := func(v []workload.DayVolume) float64 {
		h := metrics.NewHistogram()
		for _, d := range v {
			h.Observe(int64(d.Count))
		}
		return float64(h.Median())
	}
	first, last := med(series[:year]), med(series[len(series)-year:])
	return Fig2aResult{
		Series:        series,
		FirstYearMed:  first,
		LastYearMed:   last,
		Growth:        last / first,
		AvgRatePerSec: workload.AvgRatePerSecond(last),
	}
}

// String renders yearly medians and the growth headline.
func (r Fig2aResult) String() string {
	var b strings.Builder
	b.WriteString("Figure 2(a): US options+equities daily market-data events\n")
	year := len(r.Series) / 5
	for y := 0; y < 5; y++ {
		h := metrics.NewHistogram()
		for _, d := range r.Series[y*year : (y+1)*year] {
			h.Observe(int64(d.Count))
		}
		fmt.Fprintf(&b, "  year %d median: %.2e events/day\n", y+1, float64(h.Median()))
	}
	fmt.Fprintf(&b, "  growth (first→last year): %.0f%% (paper: ~500%%)\n", (r.Growth-1)*100)
	fmt.Fprintf(&b, "  recent average rate: %.0fk events/s (paper: >500k)\n", r.AvgRatePerSec/1000)
	return b.String()
}

// Fig2bResult is E3: the single-stock single-day 1-second-window series.
type Fig2bResult struct {
	SessionMedian int64
	Busiest       int64
	BusiestAt     sim.Time
	DayTotal      int64
	PerEventNs    float64
}

// RunFig2b generates the day and reports the paper's statistics.
func RunFig2b(seed int64) Fig2bResult {
	day := workload.Fig2bDay(rand.New(rand.NewSource(seed)), workload.DefaultFig2b())
	openSec := int(workload.SessionOpenHour * 3600)
	closeSec := int(workload.SessionCloseHour * 3600)
	med := day.Median(func(i int) bool { return i >= openSec && i < closeSec })
	idx, busiest := day.Busiest()
	return Fig2bResult{
		SessionMedian: med,
		Busiest:       busiest,
		BusiestAt:     day.WindowStart(idx),
		DayTotal:      day.Total(),
		PerEventNs:    workload.PerEventBudget(busiest, sim.Second).Nanoseconds(),
	}
}

// String renders the figure's headline numbers.
func (r Fig2bResult) String() string {
	return fmt.Sprintf(`Figure 2(b): options events for one stock, 1s windows
  session median: %d events/s (paper: >300k)
  busiest second: %d events (paper: ~1.5M) at %s into the day
  per-event budget in busiest second: %.0f ns (paper: ~650 ns)
  day total: %.2e events
`, r.SessionMedian, r.Busiest, r.BusiestAt, r.PerEventNs, float64(r.DayTotal))
}

// Fig2cResult is E4: the busiest second in 100 µs windows.
type Fig2cResult struct {
	Median     int64
	Busiest    int64
	Total      int64
	PerEventNs float64
}

// RunFig2c generates the microburst second.
func RunFig2c(seed int64) Fig2cResult {
	w := workload.Fig2cSecond(rand.New(rand.NewSource(seed)), workload.DefaultFig2c(), nil)
	_, busiest := w.Busiest()
	return Fig2cResult{
		Median:     w.Median(nil),
		Busiest:    busiest,
		Total:      w.Total(),
		PerEventNs: workload.PerEventBudget(busiest, 100*sim.Microsecond).Nanoseconds(),
	}
}

// String renders the figure's headline numbers.
func (r Fig2cResult) String() string {
	return fmt.Sprintf(`Figure 2(c): busiest second, 100µs windows
  median window: %d events (paper: 129)
  busiest window: %d events (paper: 1066)
  second total: %d (paper: ~1.5M)
  per-event budget in busiest window: %.0f ns (paper: ~100 ns)
`, r.Median, r.Busiest, r.Total, r.PerEventNs)
}
