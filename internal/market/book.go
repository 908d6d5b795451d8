package market

// level is one price level: its aggregate size and a FIFO queue of resting
// orders linked through the store's slab by slot index (head is oldest). A
// resting order does not record its level — an insert or removal elsewhere on
// the side would move it — it is re-found by binary search on the price.
type level struct {
	price      Price
	size       Qty // sum of live order quantities
	head, tail int32
	n          int32 // orders queued
}

// Book is a single-symbol limit order book with price-time priority
// matching — the core of the exchange substrate. It supports the order
// operations the paper lists for order-entry protocols (§2): enter, cancel,
// modify price/size; and produces the fills and BBO changes that feed the
// market-data publisher. Its orders live in an Orders store, which it may
// share with the other books of the same id space.
type Book struct {
	symbol SymbolID
	store  *Orders
	idx    int32 // this book's index in store.books
	n      int   // resting orders

	// Each side is sorted worst to best, so the best level is the last
	// element: trading it away is a truncation, and inserts and removals near
	// the touch move only the few levels above them.
	bids []level
	asks []level

	// OnBBOChange, if set, is invoked after any operation that moved the
	// best bid or offer (price or size). Figure 2(b) counts exactly these
	// events.
	OnBBOChange func(BBO)

	lastBBO BBO

	// fills backs the slice Add returns; see Add.
	fills []Fill
}

// NewBook returns an empty book for symbol with a store of its own.
func NewBook(symbol SymbolID) *Book { return NewOrders().NewBook(symbol) }

// Symbol returns the book's symbol.
func (b *Book) Symbol() SymbolID { return b.symbol }

// Orders returns the number of resting orders.
func (b *Book) Orders() int { return b.n }

func (b *Book) side(s Side) *[]level {
	if s == Buy {
		return &b.bids
	}
	return &b.asks
}

// better reports whether price p is more aggressive than q on side s.
func better(s Side, p, q Price) bool {
	if s == Buy {
		return p > q
	}
	return p < q
}

// crosses reports whether an order at price p on side s would trade with a
// resting order at price q on the opposite side.
func crosses(s Side, p, q Price) bool {
	if s == Buy {
		return p >= q
	}
	return p <= q
}

// findLevel returns the index of price p's level on side s, or the index at
// which it would be inserted.
func findLevel(lvls []level, s Side, p Price) (i int, found bool) {
	lo, hi := 0, len(lvls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if better(s, p, lvls[mid].price) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(lvls) && lvls[lo].price == p
}

// enqueue rests o, already in the slab at slot, at the tail of its level,
// creating the level if it is the first order at that price.
func (b *Book) enqueue(slot int32) {
	o := b.store.at(slot)
	lvls := b.side(o.Side)
	i, found := findLevel(*lvls, o.Side, o.Price)
	if !found {
		*lvls = append(*lvls, level{})
		copy((*lvls)[i+1:], (*lvls)[i:])
		(*lvls)[i] = level{price: o.Price}
	}
	lvl := &(*lvls)[i]
	o.prev, o.next, o.book = lvl.tail, 0, b.idx
	if lvl.tail != 0 {
		b.store.at(lvl.tail).next = slot
	} else {
		lvl.head = slot
	}
	lvl.tail = slot
	lvl.n++
	lvl.size += o.Qty
	b.n++
}

// dequeue unlinks the order at slot from level i of its side, dropping the
// level if that empties it, and frees the slot. The caller removes the id
// from the index.
func (b *Book) dequeue(lvls *[]level, i int, slot int32) {
	s := b.store
	o, lvl := s.at(slot), &(*lvls)[i]
	if o.prev != 0 {
		s.at(o.prev).next = o.next
	} else {
		lvl.head = o.next
	}
	if o.next != 0 {
		s.at(o.next).prev = o.prev
	} else {
		lvl.tail = o.prev
	}
	lvl.n--
	lvl.size -= o.Qty
	if lvl.n == 0 {
		*lvls = append((*lvls)[:i], (*lvls)[i+1:]...)
	}
	s.release(slot)
	b.n--
}

// BBO returns the current best bid and offer.
func (b *Book) BBO() BBO {
	var out BBO
	if n := len(b.bids); n > 0 {
		out.Bid = Quote{Price: b.bids[n-1].price, Size: b.bids[n-1].size}
	}
	if n := len(b.asks); n > 0 {
		out.Ask = Quote{Price: b.asks[n-1].price, Size: b.asks[n-1].size}
	}
	return out
}

func (b *Book) notifyIfBBOChanged() {
	now := b.BBO()
	if now == b.lastBBO {
		return
	}
	b.lastBBO = now
	if b.OnBBOChange != nil {
		b.OnBBOChange(now)
	}
}

// Add enters a limit order. If it crosses resting liquidity it matches
// immediately (price-time priority, at the resting price); any remainder
// rests. It returns the fills generated, in execution order. The returned
// slice is reused by the next call to Add or Modify — callers that need
// the fills afterwards must copy them.
//
// An order whose id is already live is ignored. Ids are per exchange, not
// per symbol, so that includes an id resting in another book of the same
// store.
func (b *Book) Add(o Order) []Fill {
	if o.Qty <= 0 {
		return nil
	}
	s := b.store
	pos, dup := s.index.find(o.ID)
	if dup != 0 {
		return nil
	}
	fills := b.fills[:0]
	opp := b.side(o.Side.Opposite())
	for top := len(*opp) - 1; o.Qty > 0 && top >= 0 && crosses(o.Side, o.Price, (*opp)[top].price); top = len(*opp) - 1 {
		slot := (*opp)[top].head
		rest := s.at(slot)
		qty := min(o.Qty, rest.Qty)
		fills = append(fills, Fill{Resting: rest.ID, Incoming: o.ID, Price: rest.Price, Qty: qty})
		o.Qty -= qty
		if rest.Qty > qty {
			rest.Qty -= qty
			(*opp)[top].size -= qty
			break
		}
		restPos, _ := s.index.find(rest.ID)
		s.index.remove(restPos)
		b.dequeue(opp, top, slot)
	}
	if o.Qty > 0 {
		if len(fills) > 0 {
			// Every fill consumed its resting order (o has quantity left), and
			// removing those ids may have shifted the cell found for o.ID.
			pos, _ = s.index.find(o.ID)
		}
		slot := s.alloc()
		s.at(slot).Order = o
		b.enqueue(slot)
		s.index.insert(pos, o.ID, slot)
	}
	b.fills = fills
	b.notifyIfBBOChanged()
	return fills
}

// resting returns the index cell and slab slot of order id if it rests in
// this book; slot 0 means it does not.
func (b *Book) resting(id OrderID) (pos int, slot int32) {
	pos, slot = b.store.index.find(id)
	if slot != 0 && b.store.at(slot).book != b.idx {
		slot = 0
	}
	return pos, slot
}

// Cancel removes a resting order. It reports whether the order was live —
// false models the cancel-vs-fill race in §2: the cancel arrived after the
// order had already traded.
func (b *Book) Cancel(id OrderID) bool {
	pos, slot := b.resting(id)
	if slot == 0 {
		return false
	}
	o := b.store.at(slot)
	lvls := b.side(o.Side)
	i, _ := findLevel(*lvls, o.Side, o.Price)
	b.store.index.remove(pos)
	b.dequeue(lvls, i, slot)
	b.notifyIfBBOChanged()
	return true
}

// Modify changes a resting order's price and/or quantity. Price changes and
// quantity increases lose time priority (the order is re-entered and may
// trade on arrival, exactly like exchange modify semantics); a pure quantity
// decrease keeps priority. It returns any fills from re-entry and whether
// the order was live.
func (b *Book) Modify(id OrderID, price Price, qty Qty) ([]Fill, bool) {
	_, slot := b.resting(id)
	if slot == 0 {
		return nil, false
	}
	o := b.store.at(slot)
	if price == o.Price && qty < o.Qty && qty > 0 {
		lvls := *b.side(o.Side)
		i, _ := findLevel(lvls, o.Side, o.Price)
		lvls[i].size -= o.Qty - qty
		o.Qty = qty
		b.notifyIfBBOChanged()
		return nil, true
	}
	sym, side := o.Symbol, o.Side
	b.Cancel(id)
	if qty <= 0 {
		return nil, true
	}
	fills := b.Add(Order{ID: id, Symbol: sym, Side: side, Price: price, Qty: qty})
	return fills, true
}

// Level is one aggregated price level in a depth snapshot.
type Level struct {
	Price  Price
	Size   Qty
	Orders int
}

// Levels returns up to n aggregated levels on side s, best first — the
// depth-of-book view strategies maintain from the feed.
func (b *Book) Levels(s Side, n int) []Level {
	lvls := *b.side(s)
	if n > len(lvls) {
		n = len(lvls)
	}
	out := make([]Level, 0, n)
	for i := len(lvls) - 1; len(out) < n; i-- {
		out = append(out, Level{Price: lvls[i].price, Size: lvls[i].size, Orders: int(lvls[i].n)})
	}
	return out
}

// Lookup returns a copy of a resting order's current state.
func (b *Book) Lookup(id OrderID) (Order, bool) {
	_, slot := b.resting(id)
	if slot == 0 {
		return Order{}, false
	}
	return b.store.at(slot).Order, true
}
