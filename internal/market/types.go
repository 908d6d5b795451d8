// Package market models the financial objects that flow through a trading
// plant: symbols, instruments, limit orders, a price-time-priority matching
// book, per-exchange best bid/offer (BBO) tracking, and the national best
// bid/offer (NBBO) aggregation that §4.2's regulatory discussion (locked,
// crossed, and traded-through markets) depends on.
package market

// SymbolID is an interned symbol identifier. Interning keeps hot-path
// structs free of strings.
type SymbolID uint32

// Side is the side of an order.
type Side uint8

// Order sides.
const (
	Buy Side = iota
	Sell
)

// String returns "buy" or "sell".
func (s Side) String() string {
	if s == Buy {
		return "buy"
	}
	return "sell"
}

// Opposite returns the other side.
func (s Side) Opposite() Side { return 1 - s }

// Price is a limit price in ten-thousandths of a dollar (10000 = $1.00).
// Integer prices keep book arithmetic exact.
type Price int64

// Qty is an order quantity in shares/contracts.
type Qty int64

// OrderID identifies an order within one exchange.
type OrderID uint64

// InstrumentClass distinguishes the asset classes the paper's exchanges
// partition by (§2: "some partition based on the type of instrument").
type InstrumentClass uint8

// Instrument classes.
const (
	Equity InstrumentClass = iota
	ETF
	Option
	Future
)

// String names the class.
func (c InstrumentClass) String() string {
	switch c {
	case Equity:
		return "equity"
	case ETF:
		return "etf"
	case Option:
		return "option"
	case Future:
		return "future"
	}
	return "unknown"
}

// Instrument describes one tradable product.
type Instrument struct {
	ID     SymbolID
	Ticker string
	Class  InstrumentClass
	// Underlying is the equity SymbolID an option or ETF references
	// (zero for equities). Correlated bursts across feeds (§2) arise
	// because instruments share underlyings.
	Underlying SymbolID
}

// Universe is an interning table of instruments.
type Universe struct {
	byTicker map[string]SymbolID
	// byWire indexes the tickers a feed message can carry by their packed
	// wire form, so the per-message lookup neither builds nor hashes a string.
	byWire map[uint64]SymbolID
	list   []Instrument
}

// NewUniverse returns an empty instrument table.
func NewUniverse() *Universe {
	return &Universe{byTicker: make(map[string]SymbolID), byWire: make(map[uint64]SymbolID)}
}

// wireKey packs a 6-byte wire ticker field into an integer, dropping the
// trailing NUL/space padding exactly as feed.Msg.SymbolString does. n is the
// unpadded length.
func wireKey(sym [6]byte) (key uint64, n int) {
	n = len(sym)
	for n > 0 && (sym[n-1] == 0 || sym[n-1] == ' ') {
		n--
	}
	for i := 0; i < n; i++ {
		key |= uint64(sym[i]) << (8 * i)
	}
	return key, n
}

// Add interns an instrument and returns its SymbolID. Adding an existing
// ticker returns the existing ID.
func (u *Universe) Add(ticker string, class InstrumentClass, underlying SymbolID) SymbolID {
	if id, ok := u.byTicker[ticker]; ok {
		return id
	}
	id := SymbolID(len(u.list) + 1)
	u.list = append(u.list, Instrument{ID: id, Ticker: ticker, Class: class, Underlying: underlying})
	u.byTicker[ticker] = id
	// Only a ticker that survives the wire field unchanged (it fits, and does
	// not itself end in padding) can ever be looked up from a message.
	var w [6]byte
	if copy(w[:], ticker) == len(ticker) {
		if key, n := wireKey(w); n == len(ticker) {
			u.byWire[key] = id
		}
	}
	return id
}

// Lookup returns the SymbolID for ticker, if interned.
func (u *Universe) Lookup(ticker string) (SymbolID, bool) {
	id, ok := u.byTicker[ticker]
	return id, ok
}

// LookupWire returns the SymbolID for a message's fixed-width ticker field:
// Lookup(m.SymbolString()) without the string.
func (u *Universe) LookupWire(sym [6]byte) (SymbolID, bool) {
	key, _ := wireKey(sym)
	id, ok := u.byWire[key]
	return id, ok
}

// Get returns the instrument for id. It panics on an unknown id: the
// universe is constructed up front and an unknown id is a wiring bug.
func (u *Universe) Get(id SymbolID) Instrument {
	return u.list[int(id)-1]
}

// Len returns the number of interned instruments.
func (u *Universe) Len() int { return len(u.list) }

// All returns the instrument list. The caller must not modify it.
func (u *Universe) All() []Instrument { return u.list }

// Order is a resting or incoming limit order.
type Order struct {
	ID     OrderID
	Symbol SymbolID
	Side   Side
	Price  Price
	Qty    Qty
}

// Fill describes one execution: an incoming order matched against a resting
// order for qty at the resting order's price.
type Fill struct {
	Resting  OrderID
	Incoming OrderID
	Price    Price
	Qty      Qty
}

// Quote is one side's best price and total size at that price.
type Quote struct {
	Price Price
	Size  Qty
}

// BBO is an exchange's best bid and offer. A zero-size side means no
// liquidity on that side.
type BBO struct {
	Bid Quote
	Ask Quote
}

// Valid reports whether both sides are quoted.
func (b BBO) Valid() bool { return b.Bid.Size > 0 && b.Ask.Size > 0 }
