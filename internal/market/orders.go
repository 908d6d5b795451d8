package market

import (
	"math"
	"math/bits"
)

// Orders is the storage behind the books of one order-id space (one
// exchange's ids): a slab of resting orders and one id → slot index shared by
// every book made with NewBook. Both hold pointer-free values only, so the
// collector never scans them however many orders rest, and an id resolves to
// its order — and through it to its book — in one probe.
type Orders struct {
	// segs is the slab. Segments double from 16 slots up to 512: segment
	// k < 6 holds the 16<<k slots from 16·(2^k−1) on, so a slot's segment is
	// the bit length of slot+16. Every later segment holds 512 slots, so a
	// store wastes at most one segment. Growing the slab adds a segment and
	// never moves a resting order. Slot 0 is never used, so a zero slot index
	// means "none" in every link and in the id index.
	segs  [][]bookOrder
	used  int32 // highest slot handed out so far
	free  int32 // head of the free-slot chain, linked through bookOrder.next
	index idTable
	books []*Book
}

const (
	segBits = 4 // log2 of the first segment's slot count
	// capBits is log2 of the largest segment's slot count. 512 slots are
	// 20 KB, one allocator size class: small against a mirror store that
	// holds thousands of orders, large enough that even the deepest store's
	// segment list stays short.
	capBits = 9
)

// bookOrder is one slab slot: a resting order and its place in its level's
// FIFO queue, 40 bytes. Its symbol is its book's.
type bookOrder struct {
	ID         OrderID
	Price      Price
	Qty        Qty
	prev, next int32 // queue neighbours (slot indices); next also chains free slots
	book       int32 // index of the owning book in Orders.books
	Side       Side
}

// NewOrders returns an empty store.
func NewOrders() *Orders {
	return &Orders{index: newIDTable()}
}

// NewBook returns an empty book for symbol whose orders live in s.
func (s *Orders) NewBook(symbol SymbolID) *Book {
	b := &Book{symbol: symbol, store: s, idx: int32(len(s.books))}
	s.books = append(s.books, b)
	return b
}

// BookOf returns the book in which order id rests, or nil if it is not live
// in any book of the store. Messages that carry an id but no symbol (delete,
// modify) find their book this way.
func (s *Orders) BookOf(id OrderID) *Book {
	if _, slot := s.find(id); slot != 0 {
		return s.books[s.at(slot).book]
	}
	return nil
}

// Reduce takes by off the quantity of order id, as a feed's execution or
// size reduction does, and returns the order's book, or nil if the id is not
// live. It is Modify(id, price, max(qty-by, 0)) on that book with the id
// found by one probe: the order keeps its priority while quantity is left and
// leaves its book when none is.
func (s *Orders) Reduce(id OrderID, by Qty) *Book {
	pos, slot := s.find(id)
	if slot == 0 {
		return nil
	}
	o := s.at(slot)
	b := s.books[o.book]
	b.modifyAt(pos, slot, o.Price, max(o.Qty-by, 0))
	return b
}

// Len returns the number of resting orders across all books of the store.
func (s *Orders) Len() int { return s.index.n }

// slotSeg returns the segment that holds slot and the slot's offset in it.
func slotSeg(slot int32) (k int, off uint32) {
	x := uint32(slot) + 1<<segBits
	if x < 1<<(capBits+1) {
		k = bits.Len32(x) - segBits - 1
		return k, x - 1<<(k+segBits)
	}
	// Past the doubling segments, whose slots end where x reaches 2<<capBits.
	return int(x>>capBits) + capBits - segBits - 1, x & (1<<capBits - 1)
}

// at returns the order in slot. The pointer stays valid while the slot is
// live: growth never moves a segment.
func (s *Orders) at(slot int32) *bookOrder {
	k, off := slotSeg(slot)
	return &s.segs[k][off]
}

// alloc returns a free slab slot. Slots are int32: a store that would exceed
// 2^31-1 resting orders panics.
func (s *Orders) alloc() int32 {
	if slot := s.free; slot != 0 {
		s.free = s.at(slot).next
		return slot
	}
	if s.used == math.MaxInt32 {
		panic("market: order store exceeds 2^31-1 slots")
	}
	s.used++
	if k, _ := slotSeg(s.used); k == len(s.segs) {
		s.segs = append(s.segs, make([]bookOrder, 1<<segBits<<min(k, capBits-segBits)))
	}
	return s.used
}

// forget removes the order at slot, whose id sits in index cell pos, from
// the store. The id leaves the index before the slot is released: a cell
// naming a free slot would be confirmed against whatever order reuses it.
func (s *Orders) forget(pos int, slot int32) {
	s.index.remove(pos)
	s.at(slot).next = s.free
	s.free = slot
}

// find returns the cell holding id and its slot, or the empty cell where id
// would be inserted and slot 0. A cell holds only the id's low half, so a
// cell that matches it is confirmed against the full id in the slab. The
// position stays valid until the next insert or remove.
func (s *Orders) find(id OrderID) (pos int, slot int32) {
	t := &s.index
	lo := uint32(id)
	mask := len(t.cells) - 1
	for pos = t.home(lo); ; pos = (pos + 1) & mask {
		c := t.cells[pos]
		if c.slot == 0 || c.lo == lo && s.at(c.slot).ID == id {
			return pos, c.slot
		}
	}
}

// idTable is an open-addressing hash index from order id to slab slot:
// power-of-two size, multiplicative hash of the id's low half, linear
// probing. Deletion shifts the following run back instead of leaving
// tombstones, so probe lengths depend only on what is live. It grows at 3/4
// load. Growth and deletion place cells by their low halves alone and never
// read the slab; only Orders.find does, to confirm a match.
type idTable struct {
	cells []idCell
	shift uint8 // 32 - log2(len(cells))
	n     int
}

// idCell is one index cell, 8 bytes; slot 0 marks it empty. The id's high
// half is not kept: the slab holds the full id.
type idCell struct {
	lo   uint32 // the id's low 32 bits
	slot int32
}

// newIDTable returns an empty 16-cell table: a book with a store of its own
// (one per symbol on an exchange) should cost no more than the map it replaced.
func newIDTable() idTable { return idTable{cells: make([]idCell, 16), shift: 32 - 4} }

func (t *idTable) home(lo uint32) int {
	return int(lo * 0x9E3779B9 >> t.shift)
}

// vacant returns the first empty cell of lo's run.
func (t *idTable) vacant(lo uint32) int {
	mask := len(t.cells) - 1
	pos := t.home(lo)
	for t.cells[pos].slot != 0 {
		pos = (pos + 1) & mask
	}
	return pos
}

// insert stores id → slot at pos, the empty cell Orders.find(id) returned.
func (t *idTable) insert(pos int, id OrderID, slot int32) {
	lo := uint32(id)
	if (t.n+1)*4 > len(t.cells)*3 {
		t.grow()
		pos = t.vacant(lo)
	}
	t.cells[pos] = idCell{lo: lo, slot: slot}
	t.n++
}

func (t *idTable) grow() {
	old := t.cells
	t.cells = make([]idCell, 2*len(old))
	t.shift--
	for _, c := range old {
		if c.slot != 0 {
			t.cells[t.vacant(c.lo)] = c
		}
	}
}

// remove empties the occupied cell pos and closes the gap: each later cell
// of the run moves back if the gap lies between its home cell and where it
// sits, so every remaining cell stays reachable from its home.
func (t *idTable) remove(pos int) {
	mask := len(t.cells) - 1
	for next := (pos + 1) & mask; ; next = (next + 1) & mask {
		c := t.cells[next]
		if c.slot == 0 {
			break
		}
		if (next-t.home(c.lo))&mask >= (next-pos)&mask {
			t.cells[pos] = c
			pos = next
		}
	}
	t.cells[pos] = idCell{}
	t.n--
}
