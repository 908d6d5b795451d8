package firm

import (
	"testing"

	"tradenet/internal/sim"
)

func TestFilterPlacementArithmetic(t *testing.T) {
	// §3: "if the combined time spent discarding data and the time spent
	// processing data is larger than the arrival rate, then filtering
	// should happen outside the trading system"; middleboxes amortize
	// discard work across consumers.
	fp := FilterPlacement{
		Rate:        1_000_000, // 1M msgs/s raw
		Want:        0.1,
		Consumers:   10,
		DiscardCost: 50 * sim.Nanosecond,
		ProcessCost: 500 * sim.Nanosecond,
	}
	inproc := fp.InProcessCoresUsed()
	mbox := fp.MiddleboxCoresUsed()
	// In-process: 10 × (0.9×50ns + 0.1×500ns) × 1M = 10 × 95ms/s = 0.95.
	if inproc < 0.90 || inproc > 1.0 {
		t.Fatalf("in-process cores = %v", inproc)
	}
	// Middlebox: 1×50ms/s + 10×0.1×500ns×1M = 0.05 + 0.5 = 0.55.
	if mbox < 0.50 || mbox > 0.60 {
		t.Fatalf("middlebox cores = %v", mbox)
	}
	if mbox >= inproc {
		t.Fatal("middlebox should win with 10 consumers")
	}
	// With one consumer the middlebox is pure overhead... actually equal:
	// both spend discard once; middlebox still wins nothing.
	fp.Consumers = 1
	if fp.MiddleboxCoresUsed() < fp.InProcessCoresUsed()-1e-12 {
		t.Fatal("single consumer: middlebox cannot beat in-process")
	}
	// With everything wanted, filtering placement is irrelevant; middlebox
	// adds its inspection cost on top.
	fp2 := fp
	fp2.Want = 1.0
	fp2.Consumers = 10
	if fp2.MiddleboxCoresUsed() < fp2.InProcessCoresUsed() {
		t.Fatal("nothing to discard: middlebox should not win")
	}
}
