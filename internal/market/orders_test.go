package market

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The slab, the levels and the id index must stay invisible to the collector:
// a pointer-typed field anywhere in their element types would make every
// resting order scannable again.
func TestBookStorageIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: the collector would scan it", path, ty.Kind())
		}
	}
	for _, v := range []any{bookOrder{}, level{}, idEntry{}} {
		ty := reflect.TypeOf(v)
		walk(ty.Name(), ty)
	}
	// And no padding creeps in: a plant's stores hold millions of these.
	if got := reflect.TypeOf(idEntry{}).Size(); got != 12 {
		t.Errorf("an index cell is %d bytes, want 12", got)
	}
	if got := reflect.TypeOf(bookOrder{}).Size(); got != 48 {
		t.Errorf("a slab slot is %d bytes, want 48", got)
	}
}

// collidingID returns the j-th id whose home cell is `home` in a 16-cell
// table — and, the hash taking the top bits, the same or an adjacent run in
// every larger one — by inverting the multiplicative hash.
func collidingID(home, j uint64) OrderID {
	const phi = 0x9E3779B97F4A7C15
	inv := uint64(phi) // Newton's iteration for the inverse of an odd number mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - phi*inv
	}
	return OrderID(inv * (home<<60 | j))
}

func TestCollidingIDsShareAHomeCell(t *testing.T) {
	tab := newIDTable()
	for j := uint64(1); j < 50; j++ {
		if h := tab.home(collidingID(7, j)); h != 7 {
			t.Fatalf("id %d homes at %d, want 7", j, h)
		}
	}
}

// checkTable compares the table with a map model: every live id found with
// its slot, every absent id of the key space not found, the count right.
func checkTable(t *testing.T, tab *idTable, want map[OrderID]int32, keys []OrderID) {
	t.Helper()
	if tab.n != len(want) {
		t.Fatalf("table holds %d ids, model %d", tab.n, len(want))
	}
	for _, id := range keys {
		if _, slot := tab.find(id); slot != want[id] {
			t.Fatalf("find(%#x) = slot %d, model %d", id, slot, want[id])
		}
	}
}

// tableKeys is a key space small enough that operations hit live ids often:
// half of it collides on one home cell, so removals shift long runs, some of
// them across the wrap-around (home 15 is the last cell of the smallest table).
func tableKeys() []OrderID {
	var keys []OrderID
	for j := uint64(1); j <= 64; j++ {
		keys = append(keys, OrderID(j), collidingID(15, j))
	}
	return keys
}

// driveTable interprets data as insert / remove / find operations, two bytes
// each, against a table and its map model.
func driveTable(t *testing.T, data []byte) {
	keys := tableKeys()
	tab := newIDTable()
	want := map[OrderID]int32{}
	for i := 0; i+1 < len(data); i += 2 {
		id := keys[int(data[i+1])%len(keys)]
		pos, slot := tab.find(id)
		if slot != want[id] {
			t.Fatalf("op %d: find(%#x) = slot %d, model %d", i/2, id, slot, want[id])
		}
		switch data[i] % 3 {
		case 0:
			if slot == 0 {
				tab.insert(pos, id, int32(i/2+1))
				want[id] = int32(i/2 + 1)
			}
		case 1:
			if slot != 0 {
				tab.remove(pos)
				delete(want, id)
			}
		}
		if data[i]%16 == 15 {
			checkTable(t, &tab, want, keys)
		}
	}
	checkTable(t, &tab, want, keys)
}

func FuzzOrdersTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 1, 1, 2, 3})
	fill := make([]byte, 0, 512)
	for k := 0; k < 128; k++ { // fill past several growths, then empty in insertion order
		fill = append(fill, 0, byte(k))
	}
	for k := 0; k < 128; k++ {
		fill = append(fill, 1, byte(k))
	}
	f.Add(fill)
	f.Fuzz(driveTable)
}

func TestOrdersTableRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 200; round++ {
		data := make([]byte, 2*(1+rng.Intn(600)))
		rng.Read(data)
		if round%2 == 0 { // bias toward inserts so the table grows
			for i := 0; i < len(data); i += 2 {
				if data[i]%4 != 0 {
					data[i] = 0
				}
			}
		}
		driveTable(t, data)
	}
}

// refBook is the reference the slab book is compared with: each side is a
// plain slice of orders in priority order (best price first, oldest first
// within a price), every operation a linear scan.
type refBook struct {
	sides   [2][]Order
	lastBBO BBO
	events  []BBO
}

// refStore models an Orders store: an id is live in at most one book.
type refStore struct{ books []*refBook }

func (s *refStore) live(id OrderID) bool {
	for _, b := range s.books {
		if _, _, ok := b.find(id); ok {
			return true
		}
	}
	return false
}

func (b *refBook) find(id OrderID) (Side, int, bool) {
	for s := range b.sides {
		for i, o := range b.sides[s] {
			if o.ID == id {
				return Side(s), i, true
			}
		}
	}
	return 0, 0, false
}

func (b *refBook) levels(s Side) []Level {
	var out []Level
	for _, o := range b.sides[s] {
		if n := len(out); n > 0 && out[n-1].Price == o.Price {
			out[n-1].Size += o.Qty
			out[n-1].Orders++
		} else {
			out = append(out, Level{Price: o.Price, Size: o.Qty, Orders: 1})
		}
	}
	return out
}

func (b *refBook) bbo() BBO {
	var out BBO
	if l := b.levels(Buy); len(l) > 0 {
		out.Bid = Quote{Price: l[0].Price, Size: l[0].Size}
	}
	if l := b.levels(Sell); len(l) > 0 {
		out.Ask = Quote{Price: l[0].Price, Size: l[0].Size}
	}
	return out
}

func (b *refBook) notify() {
	if now := b.bbo(); now != b.lastBBO {
		b.lastBBO = now
		b.events = append(b.events, now)
	}
}

func (b *refBook) add(s *refStore, o Order) []Fill {
	if o.Qty <= 0 || s.live(o.ID) {
		return nil
	}
	var fills []Fill
	opp := &b.sides[o.Side.Opposite()]
	for o.Qty > 0 && len(*opp) > 0 && crosses(o.Side, o.Price, (*opp)[0].Price) {
		rest := &(*opp)[0]
		qty := min(o.Qty, rest.Qty)
		fills = append(fills, Fill{Resting: rest.ID, Incoming: o.ID, Price: rest.Price, Qty: qty})
		o.Qty -= qty
		if rest.Qty -= qty; rest.Qty == 0 {
			*opp = (*opp)[1:]
		}
	}
	if o.Qty > 0 {
		own := &b.sides[o.Side]
		i := 0
		for i < len(*own) && !better(o.Side, o.Price, (*own)[i].Price) {
			i++
		}
		*own = append(*own, Order{})
		copy((*own)[i+1:], (*own)[i:])
		(*own)[i] = o
	}
	b.notify()
	return fills
}

func (b *refBook) cancel(id OrderID) bool {
	s, i, ok := b.find(id)
	if !ok {
		return false
	}
	b.sides[s] = append(b.sides[s][:i], b.sides[s][i+1:]...)
	b.notify()
	return true
}

func (b *refBook) modify(st *refStore, id OrderID, price Price, qty Qty) ([]Fill, bool) {
	s, i, ok := b.find(id)
	if !ok {
		return nil, false
	}
	o := b.sides[s][i]
	if price == o.Price && qty < o.Qty && qty > 0 {
		b.sides[s][i].Qty = qty
		b.notify()
		return nil, true
	}
	b.cancel(id)
	if qty <= 0 {
		return nil, true
	}
	o.Price, o.Qty = price, qty
	return b.add(st, o), true
}

// Differential test: random add / cancel / modify sequences over several
// books sharing one store, compared with the reference after every step. The
// id pool is small and half of it collides in the id index, so the run covers
// id reuse after cancel and after a full fill, duplicate ids in the same and
// in a sibling book, operations through the wrong sibling, index growth and
// long backward shifts.
func TestBooksMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { diffRun(t, seed) })
	}
}

func diffRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const nBooks = 3
	var ids []OrderID
	for j := uint64(1); j <= 120; j++ {
		ids = append(ids, OrderID(j), collidingID(3, j))
	}
	store, ref := NewOrders(), &refStore{}
	books := make([]*Book, nBooks)
	events := make([][]BBO, nBooks)
	for i := range books {
		i := i
		books[i] = store.NewBook(SymbolID(i + 1))
		books[i].OnBBOChange = func(q BBO) { events[i] = append(events[i], q) }
		ref.books = append(ref.books, &refBook{})
	}
	// spread widens and narrows in phases: wide lets hundreds of orders rest
	// (the index and slab grow), narrow makes most adds cross.
	spread := Price(8)
	for step := 0; step < 6000; step++ {
		if step%500 == 0 {
			spread = Price(rng.Intn(12))
		}
		bi := rng.Intn(nBooks)
		b, rb := books[bi], ref.books[bi]
		id := ids[rng.Intn(len(ids))]
		var desc string
		switch op := rng.Intn(10); {
		case op < 5:
			o := Order{ID: id, Symbol: b.Symbol(), Side: Side(rng.Intn(2)), Qty: Qty(rng.Intn(60) - 2)}
			o.Price = 1000 + Price(rng.Intn(10))
			if o.Side == Sell {
				o.Price += spread
			}
			desc = fmt.Sprintf("book %d add %+v", bi, o)
			got, want := b.Add(o), rb.add(ref, o)
			if !reflect.DeepEqual(append([]Fill(nil), got...), want) {
				t.Fatalf("step %d %s: fills %+v, reference %+v", step, desc, got, want)
			}
		case op < 7:
			desc = fmt.Sprintf("book %d cancel %#x", bi, id)
			if got, want := b.Cancel(id), rb.cancel(id); got != want {
				t.Fatalf("step %d %s: live %v, reference %v", step, desc, got, want)
			}
		default:
			price, qty := 1000+Price(rng.Intn(10))+Price(rng.Intn(2))*spread, Qty(rng.Intn(60)-2)
			if o, ok := b.Lookup(id); ok && rng.Intn(3) > 0 {
				price = o.Price                  // same price: size-down, size-up, no-op or zero
				qty = o.Qty + Qty(rng.Intn(5)-2) // -2..+2
			}
			desc = fmt.Sprintf("book %d modify %#x to %d x %d", bi, id, price, qty)
			got, gotLive := b.Modify(id, price, qty)
			want, wantLive := rb.modify(ref, id, price, qty)
			if gotLive != wantLive || !reflect.DeepEqual(append([]Fill(nil), got...), want) {
				t.Fatalf("step %d %s: fills %+v live %v, reference %+v live %v", step, desc, got, gotLive, want, wantLive)
			}
		}
		total := 0
		for i, b := range books {
			rb := ref.books[i]
			if !reflect.DeepEqual(events[i], rb.events) {
				t.Fatalf("step %d %s: book %d BBO callbacks %+v, reference %+v", step, desc, i, events[i], rb.events)
			}
			events[i], rb.events = events[i][:0], rb.events[:0]
			if b.BBO() != rb.bbo() {
				t.Fatalf("step %d %s: book %d BBO %+v, reference %+v", step, desc, i, b.BBO(), rb.bbo())
			}
			for _, s := range []Side{Buy, Sell} {
				want := rb.levels(s)
				if got := b.Levels(s, 1<<20); !reflect.DeepEqual(got, append([]Level{}, want...)) {
					t.Fatalf("step %d %s: book %d %v levels %+v, reference %+v", step, desc, i, s, got, want)
				}
				if len(*b.side(s)) != len(want) {
					t.Fatalf("step %d %s: book %d %v depth %d, reference %d", step, desc, i, s, len(*b.side(s)), len(want))
				}
				if top := b.Levels(s, 2); len(top) != min(2, len(want)) {
					t.Fatalf("step %d %s: book %d Levels(%v, 2) returned %d levels", step, desc, i, s, len(top))
				}
			}
			if want := len(rb.sides[Buy]) + len(rb.sides[Sell]); b.Orders() != want {
				t.Fatalf("step %d %s: book %d holds %d orders, reference %d", step, desc, i, b.Orders(), want)
			}
			total += b.Orders()
		}
		if store.Len() != total {
			t.Fatalf("step %d %s: store holds %d orders, its books %d", step, desc, store.Len(), total)
		}
		if step%7 != 0 {
			continue // the per-id sweep is the slow part; every 7th step still visits each phase
		}
		for _, id := range ids {
			var owner *Book
			for i, b := range books {
				got, live := b.Lookup(id)
				s, j, wantLive := ref.books[i].find(id)
				if live != wantLive || (live && got != ref.books[i].sides[s][j]) {
					t.Fatalf("step %d %s: book %d Lookup(%#x) = %+v %v, reference live %v", step, desc, i, id, got, live, wantLive)
				}
				if live {
					owner = b
				}
			}
			if store.BookOf(id) != owner {
				t.Fatalf("step %d %s: BookOf(%#x) names the wrong book", step, desc, id)
			}
		}
	}
	if store.used < 100 {
		t.Fatalf("only %d slab slots were ever in use: the run did not grow the store", store.used)
	}
}

// Growing the slab adds a segment and moves nothing: a resting order keeps
// its address while the store grows past three segments (16 + 32 + 64 slots).
func TestSlabGrowthKeepsOrdersInPlace(t *testing.T) {
	b := NewBook(1)
	b.Add(Order{ID: 1, Side: Buy, Price: 100, Qty: 10})
	_, slot := b.resting(1)
	p := b.store.at(slot)
	for id := OrderID(2); id <= 300; id++ {
		b.Add(Order{ID: id, Side: Buy, Price: 100 - Price(id%7), Qty: 1})
	}
	if n := len(b.store.segs); n <= 3 {
		t.Fatalf("store has %d segments after 300 orders, want more than 3", n)
	}
	if _, now := b.resting(1); now != slot || b.store.at(slot) != p {
		t.Fatal("growing the slab moved a resting order")
	}
	if p.ID != 1 || p.Qty != 10 {
		t.Fatalf("the resting order reads %+v after growth", p.Order)
	}
	// And no two slots map to one cell.
	seen := map[*bookOrder]int32{}
	for s := int32(1); s <= b.store.used; s++ {
		if prev, dup := seen[b.store.at(s)]; dup {
			t.Fatalf("slots %d and %d map to one cell", prev, s)
		}
		seen[b.store.at(s)] = s
	}
}

// A warmed book must not allocate: resting orders come from the slab's free
// chain, levels and fills from retained capacity, index cells are reused.
func TestWarmBookDoesNotAllocate(t *testing.T) {
	id := OrderID(0)
	cases := []struct {
		name string
		op   func(b *Book)
	}{
		{"add/cancel churn", func(b *Book) {
			id += 2
			b.Add(Order{ID: id, Side: Buy, Price: 9990 + Price(id%20), Qty: 100})
			b.Add(Order{ID: id + 1, Side: Sell, Price: 10020 + Price(id%20), Qty: 100})
			b.Cancel(id)
			b.Cancel(id + 1)
		}},
		{"cross", func(b *Book) {
			id += 3
			b.Add(Order{ID: id, Side: Sell, Price: 10000, Qty: 100})
			b.Add(Order{ID: id + 1, Side: Sell, Price: 10000, Qty: 50})
			if len(b.Add(Order{ID: id + 2, Side: Buy, Price: 10000, Qty: 150})) != 2 {
				t.Fatal("cross did not fill both resting orders")
			}
		}},
		{"modify reprice", func(b *Book) {
			id++
			b.Add(Order{ID: id, Side: Buy, Price: 9990, Qty: 100})
			b.Modify(id, 9995, 100) // new level
			b.Modify(id, 9995, 40)  // size-down in place
			b.Modify(id, 9995, 80)  // size-up re-enters
			b.Modify(id, 9990, 0)   // zero cancels
		}},
	}
	for _, c := range cases {
		b := NewBook(1)
		b.OnBBOChange = func(BBO) {}
		b.Add(Order{ID: 1 << 40, Side: Buy, Price: 9000, Qty: 1}) // a deep level on each side stays put
		b.Add(Order{ID: 1<<40 + 1, Side: Sell, Price: 11000, Qty: 1})
		for i := 0; i < 64; i++ {
			c.op(b)
		}
		if avg := testing.AllocsPerRun(500, func() { c.op(b) }); avg != 0 {
			t.Errorf("%s: %.2f allocations per run on a warmed book, want 0", c.name, avg)
		}
		if b.Orders() != 2 {
			t.Errorf("%s: %d orders rest after the churn, want the 2 anchors", c.name, b.Orders())
		}
	}
}

func TestOrdersSharedStore(t *testing.T) {
	s := NewOrders()
	a, b := s.NewBook(1), s.NewBook(2)
	a.Add(Order{ID: 7, Side: Buy, Price: 100, Qty: 10})
	if s.BookOf(7) != a || s.BookOf(8) != nil || s.Len() != 1 {
		t.Fatalf("BookOf/Len after one add: %v %v %d", s.BookOf(7), s.BookOf(8), s.Len())
	}
	// Ids are per exchange: a sibling book must refuse a live id, and must
	// not see, cancel or modify an order that rests elsewhere.
	if fills := b.Add(Order{ID: 7, Side: Sell, Price: 90, Qty: 10}); fills != nil || b.Orders() != 0 {
		t.Fatal("sibling book accepted an id that is live in the store")
	}
	if _, live := b.Lookup(7); live {
		t.Fatal("sibling book reports a foreign order live")
	}
	if _, live := b.Modify(7, 100, 5); live || b.Cancel(7) {
		t.Fatal("sibling book modified or cancelled a foreign order")
	}
	if o, live := a.Lookup(7); !live || o.Qty != 10 {
		t.Fatalf("order disturbed through its sibling: %+v live=%v", o, live)
	}
	// Once gone from a, the id is free for b.
	a.Cancel(7)
	b.Add(Order{ID: 7, Side: Sell, Price: 90, Qty: 10})
	if s.BookOf(7) != b || a.Orders() != 0 || b.Orders() != 1 {
		t.Fatal("id not reusable in a sibling book after cancel")
	}
}

func TestUniverseLookupWire(t *testing.T) {
	u := NewUniverse()
	a := u.Add("A", Equity, 0)
	ab := u.Add("AB", Equity, 0)
	full := u.Add("ABCDEF", Equity, 0)
	u.Add("TOOLONG", Equity, 0) // cannot travel in the 6-byte field
	u.Add("PAD ", Equity, 0)    // its own padding is trimmed on the wire
	wire := func(s string) (w [6]byte) { copy(w[:], s); return w }
	for _, c := range []struct {
		field string
		want  SymbolID
	}{
		{"A", a}, {"A     ", a}, {"A\x00 \x00", a}, {"AB", ab}, {"AB    ", ab}, {"ABCDEF", full},
		{"", 0}, {"      ", 0}, {"B", 0}, {"TOOLON", 0}, {"PAD ", 0}, {"PAD", 0}, {" A", 0}, {"A B", 0},
	} {
		id, ok := u.LookupWire(wire(c.field))
		if ok != (c.want != 0) || id != c.want {
			t.Errorf("LookupWire(%q) = %d %v, want %d", c.field, id, ok, c.want)
		}
	}
}
