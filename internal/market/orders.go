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
	// segs is the slab: segment k holds the 16<<k slots from 16·(2^k−1) on,
	// so a slot's segment is the bit length of slot+16 and growing the slab
	// adds a segment without moving a resting order. Slot 0 is never used,
	// so a zero slot index means "none" in every link and in the id index.
	segs  [][]bookOrder
	used  int32 // highest slot handed out so far
	free  int32 // head of the free-slot chain, linked through bookOrder.next
	index idTable
	books []*Book
}

// segBits is log2 of the first segment's slot count.
const segBits = 4

// bookOrder is one slab slot: a resting order and its place in its level's
// FIFO queue.
type bookOrder struct {
	Order
	prev, next int32 // queue neighbours (slot indices); next also chains free slots
	book       int32 // index of the owning book in Orders.books
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
// reduce, execute, modify) find their book this way.
func (s *Orders) BookOf(id OrderID) *Book {
	if _, slot := s.index.find(id); slot != 0 {
		return s.books[s.at(slot).book]
	}
	return nil
}

// Len returns the number of resting orders across all books of the store.
func (s *Orders) Len() int { return s.index.n }

// slotSeg returns the segment that holds slot and the slot's offset in it.
func slotSeg(slot int32) (k int, off uint32) {
	x := uint32(slot) + 1<<segBits
	k = bits.Len32(x) - segBits - 1
	return k, x - 1<<(k+segBits)
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
		s.segs = append(s.segs, make([]bookOrder, 1<<segBits<<k))
	}
	return s.used
}

func (s *Orders) release(slot int32) {
	s.at(slot).next = s.free
	s.free = slot
}

// idTable is an open-addressing hash index from order id to slab slot:
// power-of-two size, multiplicative hash, linear probing. Deletion shifts the
// following run back instead of leaving tombstones, so probe lengths depend
// only on what is live. It grows at 3/4 load.
type idTable struct {
	entries []idEntry
	shift   uint8 // 64 - log2(len(entries))
	n       int
}

// idEntry is one index cell; slot 0 marks it empty. The id is kept as two
// halves so that a cell is 12 bytes: as a uint64 it would be padded to 16, and
// the index would be a third of a deep store's bytes.
type idEntry struct {
	lo, hi uint32
	slot   int32
}

func (e idEntry) id() OrderID { return OrderID(e.hi)<<32 | OrderID(e.lo) }

// newIDTable returns an empty 16-cell table: a book with a store of its own
// (one per symbol on an exchange) should cost no more than the map it replaced.
func newIDTable() idTable { return idTable{entries: make([]idEntry, 16), shift: 64 - 4} }

func (t *idTable) home(id OrderID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the cell holding id and its slot, or the empty cell where id
// would be inserted and slot 0. The position stays valid until the next
// insert or remove.
func (t *idTable) find(id OrderID) (pos int, slot int32) {
	mask := len(t.entries) - 1
	for pos = t.home(id); ; pos = (pos + 1) & mask {
		e := t.entries[pos]
		if e.slot == 0 || e.id() == id {
			return pos, e.slot
		}
	}
}

// insert stores id → slot at pos, the empty cell find(id) returned.
func (t *idTable) insert(pos int, id OrderID, slot int32) {
	if (t.n+1)*4 > len(t.entries)*3 {
		t.grow()
		pos, _ = t.find(id)
	}
	t.entries[pos] = idEntry{lo: uint32(id), hi: uint32(id >> 32), slot: slot}
	t.n++
}

func (t *idTable) grow() {
	old := t.entries
	t.entries = make([]idEntry, 2*len(old))
	t.shift--
	for _, e := range old {
		if e.slot != 0 {
			pos, _ := t.find(e.id())
			t.entries[pos] = e
		}
	}
}

// remove empties the occupied cell pos and closes the gap: each later entry
// of the run moves back if the gap lies between its home cell and where it
// sits, so every remaining entry stays reachable from its home.
func (t *idTable) remove(pos int) {
	mask := len(t.entries) - 1
	for next := (pos + 1) & mask; ; next = (next + 1) & mask {
		e := t.entries[next]
		if e.slot == 0 {
			break
		}
		if (next-t.home(e.id()))&mask >= (next-pos)&mask {
			t.entries[pos] = e
			pos = next
		}
	}
	t.entries[pos] = idEntry{}
	t.n--
}
