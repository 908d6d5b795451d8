package market

// ExchangeID identifies an exchange within the simulation.
type ExchangeID uint16

// MarketState classifies the cross-exchange quote condition for one symbol.
// §4.2: the SEC prohibits advertising prices that lock (a bid on one
// exchange equals the ask on another) or cross (a bid exceeds another
// exchange's ask), and prohibits trading through better advertised prices.
// Detecting these conditions requires aggregating quotes from every
// exchange, which is the paper's argument for broad internal communication.
type MarketState uint8

// Market states, in increasing severity.
const (
	MarketNormal MarketState = iota
	MarketLocked
	MarketCrossed
)

// String names the state.
func (s MarketState) String() string {
	switch s {
	case MarketNormal:
		return "normal"
	case MarketLocked:
		return "locked"
	case MarketCrossed:
		return "crossed"
	}
	return "unknown"
}

// NBBO aggregates per-exchange BBOs for one symbol into the national best
// bid and offer.
type NBBO struct {
	quotes map[ExchangeID]BBO

	// OnStateChange, if set, fires when the lock/cross condition changes.
	OnStateChange func(old, new MarketState)

	lastState MarketState
}

// NewNBBO returns an empty aggregation.
func NewNBBO() *NBBO {
	return &NBBO{quotes: make(map[ExchangeID]BBO)}
}

// Update records exchange ex's current BBO and returns the new market state.
func (n *NBBO) Update(ex ExchangeID, b BBO) MarketState {
	n.quotes[ex] = b
	st := n.State()
	if st != n.lastState {
		old := n.lastState
		n.lastState = st
		if n.OnStateChange != nil {
			n.OnStateChange(old, st)
		}
	}
	return st
}

// Best returns the national best bid and offer, with the exchanges that set
// them. Zero sizes indicate an unquoted side.
func (n *NBBO) Best() (bid Quote, bidEx ExchangeID, ask Quote, askEx ExchangeID) {
	for ex, b := range n.quotes {
		if b.Bid.Size > 0 && (bid.Size == 0 || b.Bid.Price > bid.Price ||
			(b.Bid.Price == bid.Price && ex < bidEx)) {
			bid, bidEx = b.Bid, ex
		}
		if b.Ask.Size > 0 && (ask.Size == 0 || b.Ask.Price < ask.Price ||
			(b.Ask.Price == ask.Price && ex < askEx)) {
			ask, askEx = b.Ask, ex
		}
	}
	return bid, bidEx, ask, askEx
}

// State classifies the current cross-exchange condition. Locked and crossed
// conditions only count across *different* exchanges: a single exchange's
// own book cannot lock itself (its matching engine would have traded).
func (n *NBBO) State() MarketState {
	bid, bidEx, ask, askEx := n.Best()
	if bid.Size == 0 || ask.Size == 0 {
		return MarketNormal
	}
	if bidEx == askEx {
		return MarketNormal
	}
	switch {
	case bid.Price > ask.Price:
		return MarketCrossed
	case bid.Price == ask.Price:
		return MarketLocked
	default:
		return MarketNormal
	}
}

// Exchanges returns the number of exchanges currently contributing quotes.
func (n *NBBO) Exchanges() int { return len(n.quotes) }
