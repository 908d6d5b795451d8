package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// The scheduler's pending-event structure is a hierarchical timing wheel
// (calendar queue) with a sorted overflow level, not a binary heap. See
// DESIGN.md "Scheduler internals" for the full argument; the short version:
//
//   - The wheel is slotted on ticks of 2^tickBits picoseconds, not raw
//     picoseconds: typical event deltas in these models are hundreds of
//     nanoseconds to tens of microseconds, and a coarser slot granularity
//     lands them one or two levels lower, cutting cascade re-insertions.
//   - wheelLevels wheels of wheelSlots slots each; a slot at level k spans
//     2^(tickBits+8k) picoseconds. An event lands at the level of the
//     highest bit in which its tick differs from the wheel reference time
//     `cur` (so events in the current tick land in the level-0 slot under
//     the cursor).
//   - A level-0 slot spans one tick (~4 ns), so it may hold events at
//     different instants; the slot's intrusive list is kept fully ordered
//     by (time, prio, seq), which together with time-ordered slot scanning
//     reproduces the heap's exact deterministic ordering contract.
//   - Higher-level slots are unordered append-only lists; their events are
//     re-sorted (by re-insertion) when the slot cascades toward level 0.
//   - Events beyond the wheel horizon (2^48 ticks ≈ 13 days of lookahead)
//     go to a sorted overflow slice. Every overflow event is strictly later
//     than every wheel event, so overflow is consulted only when the wheel
//     drains.
//   - Fired and canceled events return to a free list; steady-state
//     scheduling performs zero heap allocations.
const (
	tickBits    = 12 // slot granularity: 2^12 ps ≈ 4 ns
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelMask   = wheelSlots - 1
	wheelLevels = 6
	wheelWords  = wheelSlots / 64

	// horizonBits is the number of tick bits the wheel covers; events whose
	// tick differs from the reference in a higher bit overflow.
	horizonBits = wheelBits * wheelLevels // 48
)

// Event levels outside the wheel.
const (
	levelDetached = -1 // free, fired, or canceled: not in any queue
	levelOverflow = -2 // parked in the sorted overflow slice
	levelSingle   = -3 // the lone pending event, held out of the wheel
)

// Event is a unit of pending work: a callback to run at a given instant of
// simulated time.
//
// Event handles are pooled: once an event has fired or been canceled, the
// scheduler may recycle its storage for a later schedule. A retained *Event
// stays valid for Canceled/Fired queries until that reuse happens; callers
// that keep handles across firings (e.g. to cancel a timer that may already
// have run) should hold a Handle, whose Cancel degrades to a no-op when the
// underlying storage has moved on.
type Event struct {
	at  Time
	seq uint64 // tertiary key: insertion order, guarantees determinism
	fn  func()

	// fnArg/arg1/arg2 are the closure-free fast path: hot callers (frame
	// delivery, deferred receive) schedule a package-level func with two
	// pointer args boxed as any, avoiding a closure allocation per event.
	// fnArg3/arg3 extend the same idea to three-argument callbacks
	// (multicast fan-out: egress set, ingress, frame).
	fnArg      func(a, b any)
	fnArg3     func(a, b, c any)
	arg1, arg2 any
	arg3       any

	next, prev *Event
	scheduler  *Scheduler
	prio       int  // secondary ordering key for same-instant events
	level      int8 // wheel level, levelDetached, or levelOverflow
	slot       uint8
	fired      bool
	canceled   bool
}

// Time returns the instant the event is scheduled for.
func (e *Event) Time() Time { return e.at }

// Cancel removes the event from the schedule. Canceling an event that has
// already fired or been canceled is a no-op. Cancel is O(1) for wheel
// events, O(log n + n) for rare far-future overflow events.
func (e *Event) Cancel() {
	if e == nil || e.canceled || e.fired || e.level == levelDetached {
		return
	}
	s := e.scheduler
	e.canceled = true
	switch e.level {
	case levelSingle:
		s.single = nil
	case levelOverflow:
		s.overflowRemove(e)
	default:
		s.unlink(e)
	}
	e.level = levelDetached
	s.pending--
	s.release(e)
}

// Canceled reports whether Cancel stopped the event before it ran. It is
// false for an event that already fired: canceling a fired event is a no-op
// and does not rewrite history.
func (e *Event) Canceled() bool { return e.canceled }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.fired }

// Handle is a reuse-safe reference to a scheduled event. The scheduler pools
// Event storage, so a bare *Event retained past its firing could alias a
// later, unrelated event; a Handle captures the event's unique sequence
// number and its Cancel only acts while the storage still belongs to that
// schedule. The zero Handle is valid and inert.
type Handle struct {
	e   *Event
	seq uint64
}

// Handle returns a reuse-safe handle for the event.
func (e *Event) Handle() Handle {
	if e == nil {
		return Handle{}
	}
	return Handle{e: e, seq: e.seq}
}

// Cancel cancels the referenced event if it is still the same scheduled
// event (not fired, not recycled); otherwise it is a no-op.
func (h Handle) Cancel() {
	if h.e != nil && h.e.seq == h.seq {
		h.e.Cancel()
	}
}

// Pending reports whether the referenced event is still scheduled.
func (h Handle) Pending() bool {
	return h.e != nil && h.e.seq == h.seq && h.e.level != levelDetached
}

// Priorities for same-instant event ordering. Lower runs first. These exist
// so that, e.g., a frame arriving at a switch at exactly the same instant as
// the switch's queue drain decision is processed in a deterministic,
// physically sensible order.
const (
	PrioControl = -10 // clock sync, management-plane actions
	PrioDeliver = 0   // default: packet deliveries, app callbacks
	PrioDrain   = 10  // queue drains after same-instant arrivals
	PrioReport  = 100 // metric flushes, end-of-window reporting
)

// eventList is an intrusive doubly-linked list threaded through Event.
type eventList struct {
	head, tail *Event
}

// Scheduler is a deterministic discrete-event executor. It is not safe for
// concurrent use: the entire simulation runs on one goroutine, which is what
// makes runs reproducible. (Independent schedulers on independent goroutines
// are fine — that is how core.RunParallel replicates experiments.)
type Scheduler struct {
	now Time
	// posPrio and posSeq complete (now, posPrio, posSeq), the position the
	// firing order has reached: the key of the event being executed (or last
	// executed). Before the first event posPrio is math.MinInt — nothing has
	// fired; once a run has consumed everything up to now it is math.MaxInt.
	// Passed compares reservations against this position.
	posPrio int
	posSeq  uint64
	// resEnd is the latest instant ever reserved. Run returns no earlier: an
	// event a reservation stands in for would have advanced the clock there.
	resEnd Time
	// cur is the wheel reference time: always ≤ the earliest pending event,
	// and equal to now between steps. Slot placement is relative to cur.
	cur     Time
	seq     uint64
	fired   uint64
	pending int
	rng     *rand.Rand
	halted  bool

	// single is the fast path for the lone-pending-event regime (timer
	// chains, drained queues): when the wheel and overflow are empty, the
	// next event is held here and never touches a wheel slot. Invariant:
	// single != nil ⇒ the wheel and overflow are empty.
	single *Event

	// wheel levels are allocated on first use: at ~4 ns slot granularity,
	// level 0 covers ~1 µs and level 1 ~268 µs, which is where nearly every
	// event in these models lands — most schedulers never touch the slot
	// arrays for levels 2+, and plants construct many short-lived
	// schedulers. Accesses are guarded by occ (an empty level is never
	// dereferenced), so only place needs a nil check.
	wheel [wheelLevels]*[wheelSlots]eventList
	occ   [wheelLevels][wheelWords]uint64 // per-slot occupancy bitmaps

	// overflow holds events beyond the wheel horizon, sorted by
	// (at, prio, seq).
	overflow []*Event

	free *Event // recycled Event storage, linked through next

	// prof accumulates the always-on self-profile (see profile.go).
	prof Profile
}

// NewScheduler returns a scheduler at time zero whose random source is
// seeded with seed. All stochastic model components must draw from Rand()
// so that a run is fully determined by its seed.
func NewScheduler(seed int64) *Scheduler {
	s := &Scheduler{rng: rand.New(rand.NewSource(seed)), posPrio: math.MinInt}
	s.wheel[0] = new([wheelSlots]eventList)
	s.wheel[1] = new([wheelSlots]eventList)
	return s
}

// Reset returns the scheduler to its initial state — time zero, empty
// queue, fresh RNG seeded with seed — without discarding pooled event
// storage, so a scheduler reused across replications does not re-allocate.
func (s *Scheduler) Reset(seed int64) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for w := 0; w < wheelWords; w++ {
			bm := s.occ[lvl][w]
			for bm != 0 {
				slot := w<<6 + bits.TrailingZeros64(bm)
				bm &= bm - 1
				l := &s.wheel[lvl][slot]
				for e := l.head; e != nil; {
					nx := e.next
					e.level = levelDetached
					e.next, e.prev = nil, nil
					s.release(e)
					e = nx
				}
				l.head, l.tail = nil, nil
			}
			s.occ[lvl][w] = 0
		}
	}
	for _, e := range s.overflow {
		e.level = levelDetached
		s.release(e)
	}
	s.overflow = s.overflow[:0]
	if s.single != nil {
		s.single.level = levelDetached
		s.release(s.single)
		s.single = nil
	}
	s.now, s.cur = 0, 0
	s.posPrio, s.posSeq, s.resEnd = math.MinInt, 0, 0
	s.seq, s.fired, s.pending = 0, 0, 0
	s.halted = false
	s.prof = Profile{}
	s.rng = rand.New(rand.NewSource(seed))
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Scheduler) Pending() int { return s.pending }

// alloc takes an Event from the free list, growing it a chunk at a time.
func (s *Scheduler) alloc() *Event {
	e := s.free
	if e == nil {
		chunk := make([]Event, 64)
		for i := range chunk {
			chunk[i].scheduler = s
			chunk[i].level = levelDetached
			if i+1 < len(chunk) {
				chunk[i].next = &chunk[i+1]
			}
		}
		e = &chunk[0]
	}
	s.free = e.next
	e.next = nil
	e.fired, e.canceled = false, false
	return e
}

// release returns an Event to the free list. The fired/canceled flags are
// left intact so a just-retired handle still answers queries truthfully
// until the storage is reused.
func (s *Scheduler) release(e *Event) {
	e.fn, e.fnArg, e.fnArg3 = nil, nil, nil
	e.arg1, e.arg2, e.arg3 = nil, nil, nil
	e.prev = nil
	e.next = s.free
	s.free = e
}

// At schedules fn to run at instant t with default priority. Scheduling in
// the past panics: it always indicates a model bug, and silently reordering
// time would invalidate every latency measurement downstream.
func (s *Scheduler) At(t Time, fn func()) *Event {
	return s.AtPrio(t, PrioDeliver, fn)
}

// AtPrio schedules fn at instant t with an explicit same-instant priority.
func (s *Scheduler) AtPrio(t Time, prio int, fn func()) *Event {
	e := s.schedule(t, prio)
	e.fn = fn
	return e
}

// AtArgs schedules fn(a, b) at instant t. Because fn can be a package-level
// function with its varying state passed through a and b, hot paths use this
// to schedule without allocating a closure per event. Boxing pointer-typed
// arguments into any does not allocate.
func (s *Scheduler) AtArgs(t Time, prio int, fn func(a, b any), a, b any) *Event {
	e := s.schedule(t, prio)
	e.fnArg, e.arg1, e.arg2 = fn, a, b
	return e
}

// AfterArgs schedules fn(a, b) to run d after the current instant.
func (s *Scheduler) AfterArgs(d Duration, prio int, fn func(a, b any), a, b any) *Event {
	return s.AtArgs(s.now.Add(d), prio, fn, a, b)
}

// AtArgs3 is AtArgs for three-argument callbacks.
func (s *Scheduler) AtArgs3(t Time, prio int, fn func(a, b, c any), a, b, c any) *Event {
	e := s.schedule(t, prio)
	e.fnArg3, e.arg1, e.arg2, e.arg3 = fn, a, b, c
	return e
}

// AfterArgs3 schedules fn(a, b, c) to run d after the current instant.
func (s *Scheduler) AfterArgs3(d Duration, prio int, fn func(a, b, c any), a, b, c any) *Event {
	return s.AtArgs3(s.now.Add(d), prio, fn, a, b, c)
}

// Reservation is a position in the firing order held without an event: the
// (time, prio, seq) key an event scheduled at the moment Reserve was called
// would have carried. A component whose deferred work is usually a no-op
// (a port's end-of-serialization drain that finds its queue empty) reserves
// the position instead of scheduling, and schedules at it — AtReserved —
// only if work turns up before the firing order has passed the position.
// Either way every event fires exactly where it would have had the no-op
// been scheduled, at no cost when it would have done nothing. A Reservation
// is a plain value; letting one lapse needs no call.
type Reservation struct {
	at   Time
	prio int
	seq  uint64
}

// Reserve takes the next sequence number for instant t and priority prio,
// exactly as scheduling an event there would, and returns the position.
// Reserving in the past panics like scheduling in the past.
func (s *Scheduler) Reserve(t Time, prio int) Reservation {
	if t < s.now {
		panic(fmt.Sprintf("sim: reserving at %v, before now %v", t, s.now))
	}
	r := Reservation{at: t, prio: prio, seq: s.seq}
	s.seq++
	if t > s.resEnd {
		s.resEnd = t
	}
	return r
}

// Passed reports whether the firing order has gone past r: an event holding
// r's position would already have run. Inside a callback the order stands at
// the executing event's own key; after Run or RunUntil returns it stands
// past everything at or before Now.
func (s *Scheduler) Passed(r Reservation) bool {
	if r.at != s.now {
		return r.at < s.now
	}
	if r.prio != s.posPrio {
		return r.prio < s.posPrio
	}
	return r.seq < s.posSeq
}

// AtReserved schedules fn(a, b) at the reserved position: the event fires
// where one scheduled at Reserve time would have. Each reservation may be
// scheduled at most once, and only while !Passed(r).
func (s *Scheduler) AtReserved(r Reservation, fn func(a, b any), a, b any) *Event {
	if s.Passed(r) {
		panic(fmt.Sprintf("sim: scheduling at a reservation for %v the firing order has passed (now %v)", r.at, s.now))
	}
	e := s.enqueue(r.at, r.prio, r.seq)
	e.fnArg, e.arg1, e.arg2 = fn, a, b
	return e
}

func (s *Scheduler) schedule(t Time, prio int) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, s.now))
	}
	e := s.enqueue(t, prio, s.seq)
	s.seq++
	return e
}

// enqueue makes the key (t, prio, seq) pending.
func (s *Scheduler) enqueue(t Time, prio int, seq uint64) *Event {
	e := s.alloc()
	e.at, e.prio, e.seq = t, prio, seq
	s.pending++
	if s.pending == 1 {
		// Queue was empty: hold the event out of the wheel entirely. Timer
		// chains and drained-plant phases live in this regime, where
		// schedule and pop are a pointer store and load.
		e.level = levelSingle
		s.single = e
		s.prof.PlacedSingle++
		return e
	}
	if w := s.single; w != nil {
		s.single = nil
		s.place(w)
	}
	s.place(e)
	return e
}

// place inserts e into the wheel (or overflow) relative to s.cur.
func (s *Scheduler) place(e *Event) {
	x := uint64(e.at)>>tickBits ^ uint64(s.cur)>>tickBits
	lvl := 0
	if x != 0 {
		lvl = (bits.Len64(x) - 1) / wheelBits
	}
	if lvl >= wheelLevels {
		s.overflowInsert(e)
		return
	}
	s.prof.PlacedLevel[lvl]++
	slot := int(uint64(e.at)>>tickBits>>(lvl*wheelBits)) & wheelMask
	e.level, e.slot = int8(lvl), uint8(slot)
	if s.wheel[lvl] == nil {
		s.wheel[lvl] = new([wheelSlots]eventList)
	}
	l := &s.wheel[lvl][slot]
	s.occ[lvl][slot>>6] |= 1 << (slot & 63)
	if lvl > 0 || l.tail == nil {
		// Higher-level slots are unordered; re-insertion on cascade sorts
		// them. (Appending keeps chronological seq order within a slot, but
		// cascaded-in events may interleave arbitrarily — only level 0 must
		// be ordered.)
		e.prev = l.tail
		if l.tail != nil {
			l.tail.next = e
		} else {
			l.head = e
		}
		l.tail = e
		return
	}
	// A level-0 slot spans one tick and may mix nearby instants: keep the
	// list fully ordered by (time, prio, seq). New schedules carry the
	// highest seq yet and usually the latest time in the slot, so the
	// tail-backward scan is O(1) for them; only cascaded-in older events and
	// events scheduled at a reservation (an older seq) walk further.
	p := l.tail
	for p != nil && overflowLess(e, p) {
		p = p.prev
	}
	if p == nil {
		e.next = l.head
		l.head.prev = e
		l.head = e
		return
	}
	e.prev, e.next = p, p.next
	if p.next != nil {
		p.next.prev = e
	} else {
		l.tail = e
	}
	p.next = e
}

// unlink removes e from its wheel slot, clearing the occupancy bit when the
// slot empties.
func (s *Scheduler) unlink(e *Event) {
	l := &s.wheel[e.level][e.slot]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.next, e.prev = nil, nil
	if l.head == nil {
		slot := int(e.slot)
		s.occ[e.level][slot>>6] &^= 1 << (slot & 63)
	}
}

// overflowLess orders overflow events by the scheduler contract.
func overflowLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// overflowInsert adds e to the sorted overflow slice (binary search +
// memmove; overflow events are rare far-future timers).
func (s *Scheduler) overflowInsert(e *Event) {
	e.level = levelOverflow
	s.prof.PlacedOverflow++
	lo, hi := 0, len(s.overflow)
	for lo < hi {
		mid := (lo + hi) / 2
		if overflowLess(s.overflow[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.overflow = append(s.overflow, nil)
	copy(s.overflow[lo+1:], s.overflow[lo:])
	s.overflow[lo] = e
}

// overflowRemove deletes e from the overflow slice.
func (s *Scheduler) overflowRemove(e *Event) {
	lo, hi := 0, len(s.overflow)
	for lo < hi {
		mid := (lo + hi) / 2
		if overflowLess(s.overflow[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is e's exact index: (at, prio, seq) is unique.
	copy(s.overflow[lo:], s.overflow[lo+1:])
	s.overflow[len(s.overflow)-1] = nil
	s.overflow = s.overflow[:len(s.overflow)-1]
}

// findOcc returns the first occupied slot index ≥ from at the given level.
func (s *Scheduler) findOcc(lvl, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	w := from >> 6
	word := s.occ[lvl][w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w >= wheelWords {
			return 0, false
		}
		word = s.occ[lvl][w]
	}
}

// pop removes and returns the earliest pending event, cascading higher
// wheel levels and the overflow as needed. It returns nil when nothing is
// pending.
func (s *Scheduler) pop() *Event {
	if e := s.single; e != nil {
		s.single = nil
		e.level = levelDetached
		if e.at > s.cur {
			s.cur = e.at
		}
		return e
	}
	for {
		curT := uint64(s.cur) >> tickBits
		if slot, ok := s.findOcc(0, int(curT)&wheelMask); ok {
			e := s.wheel[0][slot].head
			s.unlink(e)
			e.level = levelDetached
			s.cur = e.at
			return e
		}
		cascaded := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			idx := int(curT>>(lvl*wheelBits)) & wheelMask
			slot, ok := s.findOcc(lvl, idx+1)
			if !ok {
				continue
			}
			// Jump the reference to the slot's base time (≤ its earliest
			// event) and re-place its events; they land at lower levels.
			shift := uint(lvl * wheelBits)
			base := curT&^(1<<(shift+wheelBits)-1) | uint64(slot)<<shift
			s.cur = Time(base << tickBits)
			l := &s.wheel[lvl][slot]
			head := l.head
			l.head, l.tail = nil, nil
			s.occ[lvl][slot>>6] &^= 1 << (slot & 63)
			for e := head; e != nil; {
				nx := e.next
				e.next, e.prev = nil, nil
				s.place(e)
				e = nx
			}
			cascaded = true
			s.prof.Cascades++
			break
		}
		if cascaded {
			continue
		}
		if len(s.overflow) == 0 {
			return nil
		}
		// The wheel is drained: jump to the overflow head's horizon window
		// and move every overflow event in that window onto the wheel.
		head := s.overflow[0]
		base := Time((uint64(head.at) >> tickBits &^ (1<<horizonBits - 1)) << tickBits)
		if base > s.cur {
			s.cur = base
		}
		n := 0
		for n < len(s.overflow) && uint64(s.overflow[n].at)>>tickBits^uint64(s.cur)>>tickBits < 1<<horizonBits {
			n++
		}
		moved := s.overflow[:n]
		rest := s.overflow[n:]
		for _, e := range moved {
			s.place(e)
		}
		copy(s.overflow, rest)
		tail := s.overflow[len(rest):]
		for i := range tail {
			tail[i] = nil
		}
		s.overflow = s.overflow[:len(rest)]
	}
}

// peek returns the earliest pending event without removing it or mutating
// wheel state, or nil.
func (s *Scheduler) peek() *Event {
	if s.single != nil {
		return s.single
	}
	curT := uint64(s.cur) >> tickBits
	if slot, ok := s.findOcc(0, int(curT)&wheelMask); ok {
		return s.wheel[0][slot].head
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		idx := int(curT>>(lvl*wheelBits)) & wheelMask
		slot, ok := s.findOcc(lvl, idx+1)
		if !ok {
			continue
		}
		best := s.wheel[lvl][slot].head
		for e := best.next; e != nil; e = e.next {
			if overflowLess(e, best) {
				best = e
			}
		}
		return best
	}
	if len(s.overflow) > 0 {
		return s.overflow[0]
	}
	return nil
}

// advanceTo moves the clock (and wheel reference) forward to t with no event
// at or before t pending. Slots that the new reference lands inside are
// cascaded so the placement invariant survives the jump.
func (s *Scheduler) advanceTo(t Time) {
	s.now = t
	if t <= s.cur {
		return
	}
	s.cur = t
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		slot := int(uint64(t)>>tickBits>>(lvl*wheelBits)) & wheelMask
		if s.occ[lvl][slot>>6]&(1<<(slot&63)) == 0 {
			continue
		}
		l := &s.wheel[lvl][slot]
		head := l.head
		l.head, l.tail = nil, nil
		s.occ[lvl][slot>>6] &^= 1 << (slot & 63)
		for e := head; e != nil; {
			nx := e.next
			e.next, e.prev = nil, nil
			s.place(e)
			e = nx
		}
	}
	for len(s.overflow) > 0 && uint64(s.overflow[0].at)>>tickBits^uint64(s.cur)>>tickBits < 1<<horizonBits {
		e := s.overflow[0]
		copy(s.overflow, s.overflow[1:])
		s.overflow[len(s.overflow)-1] = nil
		s.overflow = s.overflow[:len(s.overflow)-1]
		s.place(e)
	}
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d Duration, fn func()) *Event {
	return s.At(s.now.Add(d), fn)
}

// AfterPrio schedules fn to run d after the current instant with priority.
func (s *Scheduler) AfterPrio(d Duration, prio int, fn func()) *Event {
	return s.AtPrio(s.now.Add(d), prio, fn)
}

// Every schedules fn at start and then every period thereafter, until the
// returned cancel function is called or the run ends.
func (s *Scheduler) Every(start Time, period Duration, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	stopped := false
	var pending Handle
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = s.AtPrio(s.now.Add(period), PrioReport, tick).Handle()
		}
	}
	pending = s.AtPrio(start, PrioReport, tick).Handle()
	return func() {
		stopped = true
		pending.Cancel()
	}
}

// Halt stops the run: Run and RunUntil return after the current event's
// callback completes.
func (s *Scheduler) Halt() { s.halted = true }

// step executes the earliest pending event. It reports false when the queue
// is empty.
func (s *Scheduler) step() bool {
	e := s.pop()
	if e == nil {
		return false
	}
	if e.at < s.now {
		panic("sim: event queue time went backwards")
	}
	s.now, s.posPrio, s.posSeq = e.at, e.prio, e.seq
	s.fired++
	s.pending--
	e.fired = true
	fn, fnArg, fnArg3 := e.fn, e.fnArg, e.fnArg3
	a, b, c := e.arg1, e.arg2, e.arg3
	switch {
	case fn != nil:
		s.prof.FiredClosure++
		fn()
	case fnArg != nil:
		s.prof.FiredArgs2++
		fnArg(a, b)
	default:
		s.prof.FiredArgs3++
		fnArg3(a, b, c)
	}
	s.release(e)
	return true
}

// Run executes events until the queue is empty or Halt is called. It returns
// the final simulated time: on a drained queue, the later of the last event
// and the latest reservation (the stand-in for an event that would have
// fired there); on Halt, the halting event's instant.
func (s *Scheduler) Run() Time {
	s.halted = false
	for !s.halted && s.step() {
	}
	if !s.halted {
		if s.resEnd > s.now {
			s.advanceTo(s.resEnd)
		}
		s.posPrio = math.MaxInt
	}
	return s.now
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// exactly deadline (even if no event lands there) and returns. Events
// scheduled after deadline remain pending.
func (s *Scheduler) RunUntil(deadline Time) Time {
	s.halted = false
	for !s.halted {
		e := s.peek()
		if e == nil || e.at > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.advanceTo(deadline)
	}
	if !s.halted {
		s.posPrio = math.MaxInt
	}
	return s.now
}
