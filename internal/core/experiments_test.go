package core

import (
	"fmt"
	"strings"
	"testing"

	"tradenet/internal/colo"
	"tradenet/internal/sim"
)

func TestRunTable1MatchesPaperShape(t *testing.T) {
	r := RunTable1(100_000, 1)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Min != row.PaperMin || row.Max != row.PaperMax {
			t.Errorf("%s: min/max %d/%d, paper %d/%d", row.Feed, row.Min, row.Max, row.PaperMin, row.PaperMax)
		}
		if relErr(row.Median, row.PaperMedian) > 0.10 {
			t.Errorf("%s: median %d vs paper %d", row.Feed, row.Median, row.PaperMedian)
		}
		if relErr(row.Avg, row.PaperAvg) > 0.15 {
			t.Errorf("%s: avg %d vs paper %d", row.Feed, row.Avg, row.PaperAvg)
		}
	}
	if !strings.Contains(r.String(), "Exchange B") {
		t.Fatal("render missing feeds")
	}
}

func relErr(got, want int64) float64 {
	d := float64(got-want) / float64(want)
	if d < 0 {
		d = -d
	}
	return d
}

func TestRunFig2a(t *testing.T) {
	r := RunFig2a(2)
	if r.Growth < 4 || r.Growth > 8 {
		t.Fatalf("growth = %.1f, want ~6x (500%%)", r.Growth)
	}
	if r.AvgRatePerSec < 500_000 {
		t.Fatalf("avg rate = %.0f, want >500k", r.AvgRatePerSec)
	}
	if !strings.Contains(r.String(), "500k") {
		t.Fatal("render incomplete")
	}
}

func TestRunFig2b(t *testing.T) {
	r := RunFig2b(3)
	if r.SessionMedian < 300_000 || r.SessionMedian > 400_000 {
		t.Fatalf("median = %d", r.SessionMedian)
	}
	if r.Busiest < 1_200_000 || r.Busiest > 1_900_000 {
		t.Fatalf("busiest = %d", r.Busiest)
	}
	// 1.5M events in a second ⇒ ~650ns/event budget.
	if r.PerEventNs < 500 || r.PerEventNs > 900 {
		t.Fatalf("per-event = %.0fns", r.PerEventNs)
	}
	if len(r.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestRunFig2c(t *testing.T) {
	r := RunFig2c(4)
	if r.Median < 110 || r.Median > 150 {
		t.Fatalf("median = %d, want ≈129", r.Median)
	}
	if r.Busiest < 700 {
		t.Fatalf("busiest = %d, want ≈1066", r.Busiest)
	}
	if r.PerEventNs > 150 {
		t.Fatalf("per-event = %.0f ns, want ≈100", r.PerEventNs)
	}
}

func TestRunDesignComparison(t *testing.T) {
	r := RunDesignComparison(SmallScenario(), 3)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	d1, d3, d2 := r.Rows[0], r.Rows[1], r.Rows[2]
	// The paper's ordering: L1S fastest, leaf-spine mid, cloud slowest.
	if !(d3.Mean() < d1.Mean() && d1.Mean() < d2.Mean()) {
		t.Fatalf("ordering broken: d3=%v d1=%v d2=%v", d3.Mean(), d1.Mean(), d2.Mean())
	}
	// Design 1: network ≈ half the round trip.
	if s := d1.NetworkShare(); s < 0.35 || s > 0.75 {
		t.Fatalf("design1 network share = %.2f", s)
	}
	// Design 3's network time is a small fraction of Design 1's.
	if ratio := float64(d1.NetworkTime()) / float64(d3.NetworkTime()); ratio < 3 {
		t.Fatalf("network ratio = %.1f", ratio)
	}
	if !strings.Contains(r.String(), "Design 3") {
		t.Fatal("render incomplete")
	}
}

func TestRunMrouteOverflow(t *testing.T) {
	r := RunMrouteOverflow(20, 10, 40, 5)
	if r.HWSent == 0 || r.SWSent == 0 {
		t.Fatal("both classes must see traffic")
	}
	hwLoss := 1 - float64(r.HWDelivered)/float64(r.HWSent)
	swLoss := 1 - float64(r.SWDelivered)/float64(r.SWSent)
	if hwLoss > 0.01 {
		t.Fatalf("hardware loss = %.2f, want ~0", hwLoss)
	}
	if swLoss < 0.3 {
		t.Fatalf("software loss = %.2f, want heavy", swLoss)
	}
	// Software path at least an order of magnitude slower.
	if r.SWMean < 10*r.HWMean {
		t.Fatalf("sw mean %v not ≫ hw mean %v", r.SWMean, r.HWMean)
	}
	if !strings.Contains(r.String(), "cliff") {
		t.Fatal("render incomplete")
	}
}

func TestRunGenerations(t *testing.T) {
	r := RunGenerations()
	if len(r.Rows) != 4 {
		t.Fatalf("measured = %d", len(r.Rows))
	}
	// Measured hop latency equals the generation's spec latency.
	for i, row := range r.Rows {
		if row.Measured != sim.Duration(420+[4]int64{0, 30, 55, 80}[i])*sim.Nanosecond {
			// (420, 450, 475, 500 ns)
			t.Fatalf("gen %d measured %v", i, row.Measured)
		}
	}
	if !strings.Contains(r.String(), "2023") {
		t.Fatal("render incomplete")
	}
}

func TestRunMergeBottleneck(t *testing.T) {
	r := RunMergeBottleneck([]int{1, 2, 4}, 20, 6)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Offered load grows with fan-in; queueing and/or loss grow sharply
	// once the merged feed saturates the output.
	if r.Rows[0].OfferedLoad >= 1 {
		t.Fatalf("single feed should be under line rate: %.2f", r.Rows[0].OfferedLoad)
	}
	if r.Rows[2].OfferedLoad <= r.Rows[0].OfferedLoad*2 {
		t.Fatalf("offered load should scale with fan-in: %v", r.Rows)
	}
	if r.Rows[2].MeanQueue <= r.Rows[0].MeanQueue {
		t.Fatalf("queueing should grow with fan-in: %v vs %v",
			r.Rows[2].MeanQueue, r.Rows[0].MeanQueue)
	}
	lastLoss := float64(r.Rows[2].Dropped)
	if r.Rows[2].OfferedLoad > 1 && lastLoss == 0 {
		t.Fatal("overloaded merge should drop")
	}
	if !strings.Contains(r.String(), "fan-in") {
		t.Fatal("render incomplete")
	}
}

func TestRunHeaderOverhead(t *testing.T) {
	r := RunHeaderOverhead(50_000, 7)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Paper band: headers are 25–40% of bytes sent (wider tolerance for
		// the packing-heavy feeds).
		if row.HeaderShare < 0.15 || row.HeaderShare > 0.60 {
			t.Errorf("%s header share = %.2f", row.Feed, row.HeaderShare)
		}
		if row.CompactSave <= 0 || row.CompactSave >= row.HeaderShare {
			t.Errorf("%s compact save = %.2f vs share %.2f", row.Feed, row.CompactSave, row.HeaderShare)
		}
	}
	// §5: header processing ≈ 40ns at 10G (54B of Eth+IP+TCP → 43.2 ns).
	if c := headerCostNs(); c < 38 || c > 48 {
		t.Fatalf("header cost = %.1f ns", c)
	}
	if want := fmt.Sprintf("costs %.0f ns at 10G", headerCostNs()); !strings.Contains(r.String(), want) {
		t.Fatalf("caption lacks %q", want)
	}
}

func TestRunPartitionScaling(t *testing.T) {
	r := RunPartitionScaling(4)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.PerStrategy != 600 || last.PerStrategy != 1300 {
		t.Fatalf("growth endpoints = %d→%d", first.PerStrategy, last.PerStrategy)
	}
	// By month 24 the oldest generation's table overflows.
	if last.Plans[0].Software == 0 {
		t.Fatalf("old switch should overflow at %d groups", last.TotalGroups)
	}
	// The newest generation holds out longer than the oldest.
	if last.Plans[3].Software >= last.Plans[0].Software {
		t.Fatal("newer generation should absorb more groups")
	}
	if !strings.Contains(r.String(), "month") {
		t.Fatal("render incomplete")
	}
}

func TestRunPerEventBudget(t *testing.T) {
	r := RunPerEventBudget(200_000)
	if r.DecodeNsPerMsg <= 0 || r.DecodeNsPerMsg > 2000 {
		t.Fatalf("decode = %.1f ns", r.DecodeNsPerMsg)
	}
	if r.NormalizeNsPerMsg < r.DecodeNsPerMsg {
		t.Fatalf("normalize (%.1f) should cost at least decode (%.1f)",
			r.NormalizeNsPerMsg, r.DecodeNsPerMsg)
	}
	if r.Budget1s < 600 || r.Budget1s > 700 {
		t.Fatalf("1s budget = %.0f", r.Budget1s)
	}
	if r.Budget100us < 90 || r.Budget100us > 100 {
		t.Fatalf("100µs budget = %.0f", r.Budget100us)
	}
	if !strings.Contains(r.String(), "feasible") && !strings.Contains(r.String(), "OVER") {
		t.Fatal("render missing verdicts")
	}
}

func TestRunWAN(t *testing.T) {
	r := RunWAN(400, 8)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Advantage <= 0 {
			t.Errorf("%s: microwave should win (%v)", row.Pair, row.Advantage)
		}
		if row.RainLossPct <= row.ClearLossPct {
			t.Errorf("%s: rain loss %.1f%% should exceed clear %.1f%%",
				row.Pair, row.RainLossPct, row.ClearLossPct)
		}
		if row.ClearLossPct != 0 {
			t.Errorf("%s: clear-weather loss = %.1f%%", row.Pair, row.ClearLossPct)
		}
	}
	mw, fiber := colo.DefaultMicrowave().Bandwidth, colo.DefaultFiber().Bandwidth
	if mw >= fiber {
		t.Fatal("microwave has less bandwidth")
	}
	if want := fmt.Sprintf("(%v vs %v bandwidth)", mw, fiber); !strings.Contains(r.String(), want) {
		t.Fatalf("caption lacks %q", want)
	}
}

func TestRunGenerationRoundTrip(t *testing.T) {
	r := RunGenerationRoundTrip(SmallScenario(), 3)
	if r.NewMean <= r.OldMean {
		t.Fatalf("newer switches should be slower end to end: %v vs %v", r.NewMean, r.OldMean)
	}
	delta := r.NewMean - r.OldMean
	// The measured regression should be close to 12 × 80ns = 960ns; bursts
	// introduce some queueing noise, so allow a generous band.
	if delta < r.SwitchDelta/2 || delta > 2*r.SwitchDelta {
		t.Fatalf("regression %v, predicted %v", delta, r.SwitchDelta)
	}
	if !strings.Contains(r.String(), "12 hops") {
		t.Fatal("render incomplete")
	}
}
