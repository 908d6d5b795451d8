package firm

import (
	"testing"

	"tradenet/internal/market"
)

func TestSurveillanceNBBOAndState(t *testing.T) {
	s := NewSurveillance()
	s.Update(1, 7, market.BBO{Bid: market.Quote{Price: 1000, Size: 10}, Ask: market.Quote{Price: 1010, Size: 10}})
	s.Update(2, 7, market.BBO{Bid: market.Quote{Price: 1005, Size: 5}, Ask: market.Quote{Price: 1015, Size: 5}})
	if s.State(7) != market.MarketNormal {
		t.Fatalf("state = %v", s.State(7))
	}
	// Exchange 2 locks exchange 1's ask.
	s.Update(2, 7, market.BBO{Bid: market.Quote{Price: 1010, Size: 5}, Ask: market.Quote{Price: 1015, Size: 5}})
	if s.State(7) != market.MarketLocked {
		t.Fatalf("state = %v", s.State(7))
	}
	if s.StateChanges == 0 {
		t.Fatal("state change not counted")
	}
	// Symbols are independent.
	if s.State(8) != market.MarketNormal {
		t.Fatal("untouched symbol should be normal")
	}
	if s.Updates != 3 {
		t.Fatalf("updates = %d", s.Updates)
	}
}
