package market

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniverseInterning(t *testing.T) {
	u := NewUniverse()
	aapl := u.Add("AAPL", Equity, 0)
	spy := u.Add("SPY", ETF, 0)
	opt := u.Add("AAPL 240119C00150000", Option, aapl)
	if u.Add("AAPL", Equity, 0) != aapl {
		t.Fatal("re-adding ticker must return same id")
	}
	if u.Len() != 3 {
		t.Fatalf("len = %d", u.Len())
	}
	if id, ok := u.Lookup("SPY"); !ok || id != spy {
		t.Fatal("lookup failed")
	}
	if _, ok := u.Lookup("MISSING"); ok {
		t.Fatal("phantom lookup")
	}
	in := u.Get(opt)
	if in.Underlying != aapl || in.Class != Option {
		t.Fatalf("instrument = %+v", in)
	}
}

func TestSideAndPriceHelpers(t *testing.T) {
	if Buy.Opposite() != Sell || Sell.Opposite() != Buy {
		t.Fatal("Opposite broken")
	}
	if Buy.String() != "buy" || Sell.String() != "sell" {
		t.Fatal("Side.String broken")
	}
	if s := MarketLocked.String() + MarketCrossed.String() + MarketNormal.String(); s == "" {
		t.Fatal("state names")
	}
	for _, c := range []InstrumentClass{Equity, ETF, Option, Future} {
		if c.String() == "unknown" {
			t.Fatal("class name missing")
		}
	}
}

func TestBookAddRestAndBBO(t *testing.T) {
	b := NewBook(1)
	var bboEvents []BBO
	b.OnBBOChange = func(q BBO) { bboEvents = append(bboEvents, q) }

	if fills := b.Add(Order{ID: 1, Side: Buy, Price: 1000000, Qty: 100}); len(fills) != 0 {
		t.Fatal("buy into empty book should rest")
	}
	b.Add(Order{ID: 2, Side: Sell, Price: 1000500, Qty: 200})
	bbo := b.BBO()
	if bbo.Bid != (Quote{1000000, 100}) || bbo.Ask != (Quote{1000500, 200}) {
		t.Fatalf("BBO = %+v", bbo)
	}
	if !bbo.Valid() {
		t.Fatal("two-sided BBO should be valid")
	}
	if len(bboEvents) != 2 {
		t.Fatalf("BBO events = %d, want 2", len(bboEvents))
	}
	// A deeper bid does not move the BBO: no event.
	b.Add(Order{ID: 3, Side: Buy, Price: 999900, Qty: 50})
	if len(bboEvents) != 2 {
		t.Fatal("non-BBO-affecting add fired event")
	}
	if len(*b.side(Buy)) != 2 || len(*b.side(Sell)) != 1 {
		t.Fatalf("depth = %d/%d", len(*b.side(Buy)), len(*b.side(Sell)))
	}
}

func TestBookMatchingPriceTimePriority(t *testing.T) {
	b := NewBook(1)
	b.Add(Order{ID: 1, Side: Sell, Price: 1000, Qty: 100}) // first at 1000
	b.Add(Order{ID: 2, Side: Sell, Price: 1000, Qty: 100}) // second at 1000
	b.Add(Order{ID: 3, Side: Sell, Price: 999, Qty: 50})   // better price

	fills := b.Add(Order{ID: 10, Side: Buy, Price: 1000, Qty: 180})
	if len(fills) != 3 {
		t.Fatalf("fills = %+v", fills)
	}
	// Price priority first (999), then time priority at 1000.
	if fills[0].Resting != 3 || fills[0].Price != 999 || fills[0].Qty != 50 {
		t.Fatalf("fill0 = %+v", fills[0])
	}
	if fills[1].Resting != 1 || fills[1].Qty != 100 {
		t.Fatalf("fill1 = %+v", fills[1])
	}
	if fills[2].Resting != 2 || fills[2].Qty != 30 {
		t.Fatalf("fill2 = %+v", fills[2])
	}
	// Order 2 has 70 left at the ask.
	if bbo := b.BBO(); bbo.Ask != (Quote{1000, 70}) || bbo.Bid.Size != 0 {
		t.Fatalf("BBO after sweep = %+v", bbo)
	}
	// Incoming fully exhausted: nothing rests on the buy side.
	if _, live := b.Lookup(10); live {
		t.Fatal("exhausted incoming order should not rest")
	}
}

func TestBookPartialRestAfterMatch(t *testing.T) {
	b := NewBook(1)
	b.Add(Order{ID: 1, Side: Sell, Price: 1000, Qty: 60})
	fills := b.Add(Order{ID: 2, Side: Buy, Price: 1001, Qty: 100})
	if len(fills) != 1 || fills[0].Qty != 60 || fills[0].Price != 1000 {
		t.Fatalf("fills = %+v", fills)
	}
	// Remainder rests at its limit price.
	o, live := b.Lookup(2)
	if !live || o.Qty != 40 || o.Price != 1001 {
		t.Fatalf("remainder = %+v live=%v", o, live)
	}
	if b.BBO().Bid != (Quote{1001, 40}) {
		t.Fatalf("BBO = %+v", b.BBO())
	}
}

func TestBookCancelSemanticsIncludingRace(t *testing.T) {
	b := NewBook(1)
	b.Add(Order{ID: 1, Side: Buy, Price: 1000, Qty: 100})
	if !b.Cancel(1) {
		t.Fatal("cancel of live order failed")
	}
	if b.Cancel(1) {
		t.Fatal("double cancel should fail")
	}
	// Cancel-vs-fill race (§2): order fills, then cancel arrives.
	b.Add(Order{ID: 2, Side: Buy, Price: 1000, Qty: 100})
	b.Add(Order{ID: 3, Side: Sell, Price: 1000, Qty: 100}) // fills 2
	if b.Cancel(2) {
		t.Fatal("cancel after full fill should report dead order")
	}
	if b.Orders() != 0 || len(*b.side(Buy)) != 0 || len(*b.side(Sell)) != 0 {
		t.Fatal("book should be empty")
	}
}

func TestBookModify(t *testing.T) {
	b := NewBook(1)
	b.Add(Order{ID: 1, Side: Buy, Price: 1000, Qty: 100})
	b.Add(Order{ID: 2, Side: Buy, Price: 1000, Qty: 100})

	// Size decrease keeps priority.
	if _, ok := b.Modify(1, 1000, 50); !ok {
		t.Fatal("modify failed")
	}
	b.Add(Order{ID: 3, Side: Sell, Price: 1000, Qty: 10})
	// Order 1 kept time priority, so it trades first.
	o, _ := b.Lookup(1)
	if o.Qty != 40 {
		t.Fatalf("order1 qty = %d, want 40 (kept priority)", o.Qty)
	}

	// Price change loses priority and can trade on re-entry.
	b2 := NewBook(1)
	b2.Add(Order{ID: 1, Side: Sell, Price: 1005, Qty: 100})
	b2.Add(Order{ID: 2, Side: Buy, Price: 1000, Qty: 100})
	fills, ok := b2.Modify(2, 1005, 100) // reprice the bid up to the ask
	if !ok || len(fills) != 1 || fills[0].Price != 1005 {
		t.Fatalf("modify-to-cross fills = %+v ok=%v", fills, ok)
	}

	// Modify to zero qty cancels.
	b3 := NewBook(1)
	b3.Add(Order{ID: 9, Side: Buy, Price: 1000, Qty: 10})
	if _, ok := b3.Modify(9, 1000, 0); !ok {
		t.Fatal("modify-to-zero failed")
	}
	if _, live := b3.Lookup(9); live {
		t.Fatal("order should be gone")
	}
	// Modify of unknown order reports not-live.
	if _, ok := b3.Modify(404, 1, 1); ok {
		t.Fatal("modify of unknown order should fail")
	}
}

func TestBookRejectsDuplicateAndNonPositive(t *testing.T) {
	b := NewBook(1)
	b.Add(Order{ID: 1, Side: Buy, Price: 1000, Qty: 100})
	if fills := b.Add(Order{ID: 1, Side: Buy, Price: 2000, Qty: 5}); fills != nil {
		t.Fatal("duplicate id should be ignored")
	}
	o, _ := b.Lookup(1)
	if o.Price != 1000 {
		t.Fatal("duplicate add mutated original")
	}
	b.Add(Order{ID: 2, Side: Sell, Price: 1000, Qty: 0})
	if b.Orders() != 1 {
		t.Fatal("zero-qty order should be ignored")
	}
}

// Property: conservation — total quantity added equals resting + filled,
// and the book never holds a crossed state after an operation completes.
func TestBookConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBook(1)
		var added, filled Qty
		for i := 0; i < 300; i++ {
			id := OrderID(i + 1)
			switch rng.Intn(10) {
			case 0, 1: // cancel a random earlier id
				b.Cancel(OrderID(rng.Intn(i + 1)))
			case 2: // modify
				b.Modify(OrderID(rng.Intn(i+1)), Price(990+rng.Intn(20)), Qty(rng.Intn(50)))
				// modifies change resting qty; recompute below from scratch
			default:
				q := Qty(1 + rng.Intn(100))
				o := Order{ID: id, Side: Side(rng.Intn(2)), Price: Price(990 + rng.Intn(20)), Qty: q}
				added += q
				for _, fl := range b.Add(o) {
					filled += fl.Qty
				}
			}
			bbo := b.BBO()
			if bbo.Bid.Size > 0 && bbo.Ask.Size > 0 && bbo.Bid.Price >= bbo.Ask.Price {
				return false // book internally locked/crossed: impossible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNBBOBestAndState(t *testing.T) {
	n := NewNBBO()
	var transitions []MarketState
	n.OnStateChange = func(_, new MarketState) { transitions = append(transitions, new) }

	n.Update(1, BBO{Bid: Quote{1000, 100}, Ask: Quote{1010, 100}})
	n.Update(2, BBO{Bid: Quote{1005, 50}, Ask: Quote{1015, 50}})
	bid, bidEx, ask, askEx := n.Best()
	if bid.Price != 1005 || bidEx != 2 || ask.Price != 1010 || askEx != 1 {
		t.Fatalf("best = %v@%d / %v@%d", bid, bidEx, ask, askEx)
	}
	if n.State() != MarketNormal {
		t.Fatalf("state = %v", n.State())
	}

	// Exchange 2 bids 1010: equals exchange 1's ask → locked.
	if st := n.Update(2, BBO{Bid: Quote{1010, 50}, Ask: Quote{1015, 50}}); st != MarketLocked {
		t.Fatalf("state = %v, want locked", st)
	}
	// Exchange 2 bids 1012 → crossed.
	if st := n.Update(2, BBO{Bid: Quote{1012, 50}, Ask: Quote{1015, 50}}); st != MarketCrossed {
		t.Fatalf("state = %v, want crossed", st)
	}
	// Back to normal.
	n.Update(2, BBO{Bid: Quote{1005, 50}, Ask: Quote{1015, 50}})
	want := []MarketState{MarketLocked, MarketCrossed, MarketNormal}
	if len(transitions) != 3 {
		t.Fatalf("transitions = %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
	if n.Exchanges() != 2 {
		t.Fatalf("exchanges = %d", n.Exchanges())
	}
}

func TestNBBOSingleExchangeCannotLockItself(t *testing.T) {
	n := NewNBBO()
	// One exchange reporting bid == ask is a data artifact, not a locked
	// market; matching would have cleared it.
	n.Update(1, BBO{Bid: Quote{1000, 10}, Ask: Quote{1000, 10}})
	if n.State() != MarketNormal {
		t.Fatalf("state = %v", n.State())
	}
}

func TestNBBOOneSidedQuotes(t *testing.T) {
	n := NewNBBO()
	n.Update(1, BBO{Bid: Quote{1000, 10}})
	if n.State() != MarketNormal {
		t.Fatal("one-sided market is normal")
	}
	bid, _, ask, _ := n.Best()
	if bid.Size != 10 || ask.Size != 0 {
		t.Fatalf("best = %v / %v", bid, ask)
	}
}

func BenchmarkBookAddCancelChurn(b *testing.B) {
	book := NewBook(1)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := OrderID(i)
		book.Add(Order{ID: id, Side: Side(i % 2), Price: Price(9990 + rng.Intn(20)), Qty: 100})
		if i%2 == 1 {
			book.Cancel(id - 1)
		}
	}
}

func TestBookLevels(t *testing.T) {
	b := NewBook(1)
	b.Add(Order{ID: 1, Side: Buy, Price: 1000, Qty: 100})
	b.Add(Order{ID: 2, Side: Buy, Price: 1000, Qty: 50})
	b.Add(Order{ID: 3, Side: Buy, Price: 990, Qty: 200})
	b.Add(Order{ID: 4, Side: Sell, Price: 1010, Qty: 75})

	bids := b.Levels(Buy, 10)
	if len(bids) != 2 {
		t.Fatalf("bid levels = %d", len(bids))
	}
	if bids[0] != (Level{Price: 1000, Size: 150, Orders: 2}) {
		t.Fatalf("top bid level = %+v", bids[0])
	}
	if bids[1] != (Level{Price: 990, Size: 200, Orders: 1}) {
		t.Fatalf("second bid level = %+v", bids[1])
	}
	// n caps the depth.
	if got := b.Levels(Buy, 1); len(got) != 1 || got[0].Price != 1000 {
		t.Fatalf("capped levels = %+v", got)
	}
	asks := b.Levels(Sell, 10)
	if len(asks) != 1 || asks[0].Size != 75 {
		t.Fatalf("ask levels = %+v", asks)
	}
	if empty := NewBook(2).Levels(Buy, 5); len(empty) != 0 {
		t.Fatal("empty book should have no levels")
	}
}

func BenchmarkNBBOUpdate(b *testing.B) {
	n := NewNBBO()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex := ExchangeID(i % 16)
		p := Price(10000 + i%50)
		n.Update(ex, BBO{Bid: Quote{p - 1, 100}, Ask: Quote{p + 1, 100}})
	}
}
