package firm

import (
	"tradenet/internal/market"
)

// Surveillance is the firm-wide market-state aggregator §4.2 motivates:
// SEC rules prohibit advertising prices that lock or cross other exchanges'
// quotes, and trading through better prices advertised elsewhere — so a
// compliant firm must aggregate every exchange's quotes into the national
// picture. This is the paper's argument for "broad internal communication":
// the surveillance function needs data from all markets, not just the one
// being traded. E17 (metronbbo) measures how often a view built from
// delayed feeds misreports the national state.
type Surveillance struct {
	nbbo map[market.SymbolID]*market.NBBO

	// Stats.
	Updates uint64
	// StateChanges counts observed lock/cross transitions across the
	// whole market.
	StateChanges uint64
}

// NewSurveillance returns an empty aggregator.
func NewSurveillance() *Surveillance {
	return &Surveillance{nbbo: make(map[market.SymbolID]*market.NBBO)}
}

func (s *Surveillance) book(sym market.SymbolID) *market.NBBO {
	n, ok := s.nbbo[sym]
	if !ok {
		n = market.NewNBBO()
		n.OnStateChange = func(_, _ market.MarketState) { s.StateChanges++ }
		s.nbbo[sym] = n
	}
	return n
}

// Update records exchange ex's BBO for a symbol.
func (s *Surveillance) Update(ex market.ExchangeID, sym market.SymbolID, bbo market.BBO) {
	s.Updates++
	s.book(sym).Update(ex, bbo)
}

// State returns the symbol's current lock/cross condition.
func (s *Surveillance) State(sym market.SymbolID) market.MarketState {
	return s.book(sym).State()
}
