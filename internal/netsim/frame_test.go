package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"tradenet/internal/sim"
	"tradenet/internal/trace"
	"tradenet/internal/units"
)

// Frame-sharing contract tests. A Clone is one more hold on a frame: an
// untraced original is handed to the new holder as it is, a traced leg gets
// a header of its own that aliases the original's bytes; the buffer returns
// to the pool when the last hold of the tree is released, whatever the
// order. These pin that contract for pooled and hand-built roots, alone and
// with several simulations sharing the pools.

func TestFrameClone(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size > 64 {
		t.Fatalf("Frame header is %d bytes, want at most one 64-byte cache line", size)
	}
	for _, traced := range []bool{false, true} {
		pooled := NewFrameBytes([]byte{1, 2, 3})
		pooled.Origin, pooled.ID = 5, 9
		for name, f := range map[string]*Frame{
			"pooled":     pooled,
			"hand-built": {Data: []byte{1, 2, 3}, Origin: 5, ID: 9},
		} {
			rec := trace.NewRecorder(1, 2) // the original and one fork
			if traced {
				f.Trace = rec.Start(0)
			}
			c := f.Clone()
			if c.Origin != 5 || c.ID != 9 {
				t.Fatalf("%s: clone lost Origin/ID: %v/%d", name, c.Origin, c.ID)
			}
			if len(c.Data) != 3 || &c.Data[0] != &f.Data[0] {
				t.Fatalf("%s: clone does not alias the original's bytes", name)
			}
			if (c != f) != traced {
				t.Fatalf("%s, traced %v: Clone returned its receiver: %v", name, traced, c == f)
			}
			if traced {
				if cap(c.Data) != len(c.Data) {
					t.Fatalf("%s: header capacity %d not clamped to length %d", name, cap(c.Data), len(c.Data))
				}
				if c.Trace == nil || c.Trace == f.Trace || c.Trace.ID != f.Trace.ID {
					t.Fatalf("%s: header's trace is not a fork of the original's", name)
				}
				// The recorder is now at capacity, so the next leg goes
				// untraced — and still gets a header, because its source is one.
				if cc := c.Clone(); cc == c || cc.Trace != nil || &cc.Data[0] != &f.Data[0] {
					t.Fatalf("%s: clone of a header is not an untraced header over the same bytes", name)
				} else {
					cc.Release()
				}
			}
			if f == pooled && pooled.refs != 2 {
				t.Fatalf("pooled root refs = %d with two holders", pooled.refs)
			}
			f.Release()
			if !bytes.Equal(c.Data, []byte{1, 2, 3}) {
				t.Fatalf("%s: clone bytes changed when the original's holder released", name)
			}
			c.Release()
			if got := len(rec.Done()); got != rec.Created() {
				t.Fatalf("%s: %d of %d traces closed by Release", name, got, rec.Created())
			}
		}
		if pooled.refs != 0 || !pooled.released {
			t.Fatalf("pooled root refs = %d, released = %v after every holder released", pooled.refs, pooled.released)
		}
	}
}

// TestCloneSharesUntracedFrames pins the rule that selects between the two
// forms of replica, and the guard that replaces per-holder double-release
// protection on shared frames.
func TestCloneSharesUntracedFrames(t *testing.T) {
	pooled := NewFrameBytes([]byte{1, 2, 3})
	hand := &Frame{Data: []byte{1, 2, 3}}
	for name, f := range map[string]*Frame{"pooled": pooled, "hand-built": hand} {
		if c := f.Clone(); c != f {
			t.Errorf("%s: Clone of an untraced frame returned a different *Frame", name)
		}
		f.Trace = trace.NewRecorder(1, 8).Start(0)
		c := f.Clone()
		if c == f {
			t.Errorf("%s: Clone of a traced frame returned its receiver", name)
		}
		c.Release()
		f.Release() // closes the trace and gives up the first Clone's hold
	}
	if pooled.refs != 1 {
		t.Fatalf("pooled root refs = %d, want the builder's hold only", pooled.refs)
	}
	pooled.Release()
	pooled.Release() // nobody holds it: a no-op
	if pooled.refs != 0 {
		t.Fatalf("pooled root refs = %d after a release with no holders", pooled.refs)
	}
	defer func() {
		if recover() == nil {
			t.Error("Clone of a pooled frame after its last Release did not panic")
		}
	}()
	pooled.Clone()
}

// holder is one hold on a frame of a clone tree and the bytes it must read.
// Holders of an untraced original share one *Frame.
type holder struct {
	f    *Frame
	want []byte
	live bool
}

// cloneTree grows one random clone tree (clones of clones, over a pooled or
// a hand-built root, traced or not, with a recorder that may run out of
// contexts part-way) and releases it in random order, root-first included.
// A Clone must return its source exactly when the source is untraced and
// not a header, and otherwise a distinct header with clamped capacity and a
// forked trace. After every step each live holder must still read its bytes
// and the root's reference count must equal the number of live holders.
// Frames taken from the pool meanwhile are scribbled on: a buffer pooled
// while somebody still holds it would be handed out there and the scribble
// would show. doubleRelease also releases a second time at once wherever
// the contract makes that a no-op: every header, and the tree's last
// holder. It is for single-goroutine callers, since a frame that has gone
// back to a shared pool may already be another goroutine's. A holder of a
// shared frame that others still hold is never released twice: the frame
// cannot tell its holders apart, so the second release would take a
// sibling's hold — per-holder protection needs the per-holder header that
// sharing removes.
func cloneTree(rng *rand.Rand, doubleRelease bool) error {
	body := make([]byte, 1+rng.Intn(1500))
	rng.Read(body)
	pooledRoot := rng.Intn(4) != 0
	root := &Frame{Data: append([]byte(nil), body...)}
	if pooledRoot {
		root = NewFrameBytes(body)
	}
	root.Origin, root.ID = sim.Time(rng.Int63()), rng.Uint64()
	maxCtx := 1 + rng.Intn(24)
	rec := trace.NewRecorder(1, maxCtx)
	if rng.Intn(2) == 0 {
		root.Trace = rec.Start(0)
	}

	hs := []*holder{{f: root, want: body, live: true}}
	live := 1
	pick := func() *holder {
		for {
			if h := hs[rng.Intn(len(hs))]; h.live {
				return h
			}
		}
	}
	var scratch []*Frame
	defer func() {
		for _, s := range scratch {
			s.Release()
		}
	}()
	takeScratch := func() *Frame {
		s := NewFrame()
		s.Data = s.Data[:cap(s.Data)]
		for i := range s.Data {
			s.Data[i] = 0xEE
		}
		scratch = append(scratch, s)
		return s
	}

	for live > 0 {
		switch op := rng.Intn(10); {
		case op < 4 && len(hs) < 48:
			from := pick()
			src := from.f
			shares := src.Trace == nil && !src.isHeader()
			forks := src.Trace != nil && rec.Created() < maxCtx
			c := src.Clone()
			switch {
			case shares && c != src:
				return fmt.Errorf("clone of an untraced original is a different *Frame")
			case shares:
			case c == src || !c.isHeader():
				return fmt.Errorf("clone of a traced frame or of a header is not a header of its own")
			case cap(c.Data) != len(c.Data) || &c.Data[0] != &src.Data[0]:
				return fmt.Errorf("header does not alias its source with clamped capacity")
			case forks != (c.Trace != nil) || (forks && (c.Trace == src.Trace || c.Trace.ID != src.Trace.ID)):
				return fmt.Errorf("header's trace is not a fork of its source's (recorder has room: %v)", forks)
			}
			hs = append(hs, &holder{f: c, want: from.want, live: true})
			live++
		case op < 5:
			// An append on a header must reallocate, not write through into
			// capacity its siblings share. (Nothing outside this package may
			// assign a received frame's Data at all — framemut's builder
			// rule — which is what protects a shared original.)
			if h := pick(); h.f.isHeader() {
				b := byte(rng.Intn(256))
				h.f.Data = append(h.f.Data, b)
				h.want = append(h.want[:len(h.want):len(h.want)], b)
			}
		case op < 6:
			// A consumer steals the trace (as the normalizer and the strategy
			// do): from here on this frame is untraced, and an original
			// becomes shareable.
			if h := pick(); h.f.Trace != nil {
				h.f.Trace.Finish(trace.EndConsumed)
				h.f.Trace = nil
			}
		default:
			h := pick()
			hdr := h.f.isHeader()
			h.f.Release()
			h.live = false
			live--
			if doubleRelease && (hdr || live == 0) {
				h.f.Release()
			}
			if live > 0 && takeScratch() == root {
				return fmt.Errorf("root buffer handed out by the pool with %d holders alive", live)
			}
		}
		traced := map[*Frame]int{}
		for _, h := range hs {
			if !h.live {
				continue
			}
			if !bytes.Equal(h.f.Data, h.want) {
				return fmt.Errorf("live holder reads %d bytes that differ from its %d original bytes", len(h.f.Data), len(h.want))
			}
			if h.f.Origin != root.Origin || h.f.ID != root.ID {
				return fmt.Errorf("live holder lost Origin/ID")
			}
			if h.f.Trace != nil {
				if traced[h.f]++; traced[h.f] > 1 {
					return fmt.Errorf("a traced frame is shared by two holders")
				}
			}
		}
		if want := int32(live); pooledRoot && root.refs != want {
			return fmt.Errorf("root refs = %d with %d live holders", root.refs, want)
		}
	}
	if root.refs != 0 || root.released != pooledRoot {
		return fmt.Errorf("extinct tree: root refs = %d, released = %v (pooled %v)", root.refs, root.released, pooledRoot)
	}
	if got := len(rec.Done()); got != rec.Created() {
		return fmt.Errorf("extinct tree: %d of %d traces closed", got, rec.Created())
	}
	// Pooled exactly once: the dead root may come back, but to one caller.
	got := 0
	for i := 0; i < 4; i++ {
		if takeScratch() == root {
			got++
		}
	}
	if got > 1 {
		return fmt.Errorf("dead root handed out %d times: it was pooled more than once", got)
	}
	return nil
}

func TestFrameCloneTreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		if err := cloneTree(rng, true); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
	}
}

// replicator is a two-line multicast device: every frame goes to every out
// port, clones on all legs but the last, as the device package's fan-outs do.
// offered, when set, counts the frames handed to each out port.
type replicator struct {
	outs    []*Port
	offered map[*Port]uint64
}

func (r *replicator) HandleFrame(_ *Port, f *Frame) {
	for i, out := range r.outs {
		ff := f
		if i < len(r.outs)-1 {
			ff = f.Clone()
		}
		if r.offered != nil {
			r.offered[out]++
		}
		out.Send(ff)
	}
}

// patternSink checks each arrival against the byte pattern its ID implies,
// releases half at once and retains the rest for a late, reversed release.
type patternSink struct {
	got      int
	retained []*Frame
	err      error
}

func patternByte(id uint64, i int) byte { return byte(id*31 + uint64(i)) }

func (s *patternSink) HandleFrame(_ *Port, f *Frame) {
	s.got++
	for i, b := range f.Data {
		if b != patternByte(f.ID, i) {
			s.err = fmt.Errorf("frame %d byte %d = %#x, want %#x", f.ID, i, b, patternByte(f.ID, i))
			break
		}
	}
	if s.got%2 == 0 {
		s.retained = append(s.retained, f)
		return
	}
	f.Release()
}

// fanOutSim runs one small simulation: frames of varied length through two
// levels of replication (so sinks hold clones of clones) at fan-out 3 × 4.
func fanOutSim(seed int64) error {
	const frames, fan1, fan2 = 40, 3, 4
	sched := sim.NewScheduler(seed)
	link := func(a, b *Port) { Connect(a, b, units.Rate10G, 50*sim.Nanosecond) }

	snk := &patternSink{}
	top := &replicator{}
	tx := NewPort(sched, nil, "tx")
	link(tx, NewPort(sched, top, "top/in"))
	for i := 0; i < fan1; i++ {
		mid := &replicator{}
		out := NewPort(sched, nil, "top/out")
		top.outs = append(top.outs, out)
		link(out, NewPort(sched, mid, "mid/in"))
		for j := 0; j < fan2; j++ {
			leg := NewPort(sched, nil, "mid/out")
			mid.outs = append(mid.outs, leg)
			link(leg, NewPort(sched, snk, "rx"))
		}
	}

	rng := rand.New(rand.NewSource(seed))
	for id := uint64(1); id <= frames; id++ {
		f := NewFrame()
		f.ID = id
		for i, n := 0, 60+rng.Intn(1400); i < n; i++ {
			f.Data = append(f.Data, patternByte(id, i))
		}
		tx.Send(f)
	}
	sched.Run()

	if snk.err != nil {
		return snk.err
	}
	if snk.got != frames*fan1*fan2 {
		return fmt.Errorf("sinks got %d frames, want %d", snk.got, frames*fan1*fan2)
	}
	for i := len(snk.retained) - 1; i >= 0; i-- {
		f := snk.retained[i]
		for k, b := range f.Data {
			if b != patternByte(f.ID, k) {
				return fmt.Errorf("retained frame %d byte %d = %#x after its siblings were released", f.ID, k, b)
			}
		}
		f.Release()
	}
	return nil
}

// TestFrameSharingConcurrentSimulations runs clone trees and replicating
// simulations on several goroutines at once, the way core.RunParallel runs
// replications: each tree stays on its goroutine, the pools are shared. Its
// value is under -race, where a pool handing one header or buffer to two
// goroutines shows as a data race or as corrupted bytes.
func TestFrameSharingConcurrentSimulations(t *testing.T) {
	const workers, rounds = 4, 40
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				if err := cloneTree(rng, false); err != nil {
					t.Errorf("worker %d tree %d: %v", seed, i, err)
					return
				}
				if err := fanOutSim(seed*1000 + int64(i)); err != nil {
					t.Errorf("worker %d simulation %d: %v", seed, i, err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// lateSink checks each arrival against its pattern and then releases it at
// once, after a delay, or only when the test asks — so holds on one shared
// frame end in every order, interleaved with the fabric's own terminals.
// recycled is the set of roots the pool has handed out again: an arrival
// that belongs to one of them was pooled while it was still held.
type lateSink struct {
	sched    *sim.Scheduler
	rng      *rand.Rand
	recycled map[*Frame]bool
	got      uint64
	held     []*Frame
	err      error
}

func (s *lateSink) check(f *Frame, when string) {
	if s.err != nil {
		return
	}
	if s.recycled[f] || s.recycled[f.root] {
		s.err = fmt.Errorf("frame %d %s after the pool handed its buffer out again", f.ID, when)
		return
	}
	for i, b := range f.Data {
		if b != patternByte(f.ID, i) {
			s.err = fmt.Errorf("frame %d %s: byte %d = %#x, want %#x", f.ID, when, i, b, patternByte(f.ID, i))
			return
		}
	}
}

func (s *lateSink) HandleFrame(_ *Port, f *Frame) {
	s.got++
	s.check(f, "arrived")
	switch s.rng.Intn(3) {
	case 0:
		f.Release()
	case 1:
		s.sched.After(sim.Duration(1+s.rng.Intn(20))*sim.Microsecond, func() {
			s.check(f, "held by a sink")
			f.Release()
		})
	default:
		s.held = append(s.held, f)
	}
}

// conservationSim drives one seeded script of everything that can end a hold
// — tail drops at tiny queues, in-flight loss, link cuts with frames on the
// wire, queue purges, sends into a dead link, sinks that release late —
// through two levels of replication, over traced and untraced roots, and
// checks at quiesce that no hold was lost or given up twice.
func conservationSim(seed int64) error {
	const frames, fan1, fan2 = 240, 3, 4
	sched := sim.NewScheduler(seed)
	rng := rand.New(rand.NewSource(seed))
	offered := map[*Port]uint64{}
	recycled := map[*Frame]bool{}
	snk := &lateSink{sched: sched, rng: rng, recycled: recycled}

	var txs []*Port // every transmitting port: the sender's, then each replicator's legs
	port := func(owner Handler, name string) *Port {
		p := NewPort(sched, owner, name)
		p.SetQueueCapacity(2000 + rng.Intn(4000))
		if rng.Intn(3) == 0 {
			p.LossProb = 0.05
		}
		txs = append(txs, p)
		return p
	}
	// 2 µs of fibre holds several frames in flight for a cut to lose.
	link := func(a *Port, rx Handler, name string) {
		Connect(a, NewPort(sched, rx, name), units.Rate10G, 2*sim.Microsecond)
	}
	top := &replicator{offered: offered}
	tx := port(nil, "tx")
	link(tx, top, "top/in")
	for i := 0; i < fan1; i++ {
		mid := &replicator{offered: offered}
		out := port(nil, "top/out")
		top.outs = append(top.outs, out)
		link(out, mid, "mid/in")
		for j := 0; j < fan2; j++ {
			leg := port(nil, "mid/out")
			mid.outs = append(mid.outs, leg)
			link(leg, snk, "rx")
		}
	}

	// Every root is built before any is sent, so the pointers are distinct
	// and a later NewFrame can return one only out of the pool.
	rec := trace.NewRecorder(3, 400) // every third root traced, until contexts run out
	roots := make(map[*Frame]bool, frames)
	at := sim.Time(0)
	for id := uint64(1); id <= frames; id++ {
		f := NewFrame()
		f.ID = id
		for i, n := 0, 60+rng.Intn(1400); i < n; i++ {
			f.Data = append(f.Data, patternByte(id, i))
		}
		f.Trace = rec.Start(at)
		roots[f] = true
		if rng.Intn(4) == 0 { // bursts of about four overflow the queues
			at = at.Add(sim.Duration(rng.Intn(6000)) * sim.Nanosecond)
		}
		sched.At(at, func() {
			offered[tx]++
			tx.Send(f)
		})
	}
	var scratch []*Frame
	seen := map[*Frame]bool{}
	takeScratch := func() error {
		s := NewFrame()
		s.Data = s.Data[:cap(s.Data)]
		for i := range s.Data {
			s.Data[i] = 0xEE
		}
		scratch = append(scratch, s)
		if seen[s] {
			return fmt.Errorf("the pool handed out one frame twice: it was pooled more than once")
		}
		seen[s] = true
		if roots[s] {
			recycled[s] = true
		}
		return nil
	}
	var scriptErr error
	for i := 0; i < 60; i++ {
		p := txs[rng.Intn(len(txs))]
		t := sim.Time(rng.Int63n(int64(at) + 1))
		switch i % 3 {
		case 0:
			sched.At(t, func() { p.SetUp(false) })
			sched.At(t.Add(sim.Duration(1+rng.Intn(15))*sim.Microsecond), func() { p.SetUp(true) })
		case 1:
			sched.At(t, func() { // the device holding the most packet memory fails
				for _, q := range txs {
					if q.QueuedBytes() > p.QueuedBytes() {
						p = q
					}
				}
				p.PurgeQueue()
			})
		default:
			sched.At(t, func() {
				if err := takeScratch(); err != nil && scriptErr == nil {
					scriptErr = err
				}
			})
		}
	}
	sched.Run()
	for _, p := range txs {
		p.SetUp(true) // a flap may have ended on a port already down: drain what it left queued
	}
	sched.Run()
	for _, f := range snk.held {
		snk.check(f, "held to the end")
		f.Release()
	}
	if snk.err != nil {
		return snk.err
	}
	if scriptErr != nil {
		return scriptErr
	}

	var ends struct{ rx, drops, lost, blackholed, purged uint64 }
	for _, p := range txs {
		if p.QueuedBytes() != 0 || p.InFlight() != 0 {
			return fmt.Errorf("%s not quiescent: %d bytes queued, %d in flight", p.Name, p.QueuedBytes(), p.InFlight())
		}
		rx := p.Peer().RxFrames
		if got := rx + p.Drops + p.Lost + p.Blackholed + p.Purged; got != offered[p] {
			return fmt.Errorf("%s: offered %d frames, accounted for %d (rx %d, dropped %d, lost %d, blackholed %d, purged %d)",
				p.Name, offered[p], got, rx, p.Drops, p.Lost, p.Blackholed, p.Purged)
		}
		ends.drops += p.Drops
		ends.lost += p.Lost
		ends.blackholed += p.Blackholed
		ends.purged += p.Purged
		if p.Peer().Owner == Handler(snk) {
			ends.rx += rx
		}
	}
	if ends.rx != snk.got || ends.rx == 0 || ends.drops == 0 || ends.lost == 0 || ends.blackholed == 0 || ends.purged == 0 {
		return fmt.Errorf("script did not exercise every terminal: %+v, sinks got %d", ends, snk.got)
	}
	if got := len(rec.Done()); got != rec.Created() || got == 0 {
		return fmt.Errorf("%d of %d traces closed", got, rec.Created())
	}
	for f := range roots {
		// A root the pool handed back as scratch is held once, by this test.
		if recycled[f] {
			if f.refs != 1 {
				return fmt.Errorf("recycled root refs = %d, want the scratch holder's 1", f.refs)
			}
		} else if f.refs != 0 || !f.released {
			return fmt.Errorf("root %d at quiesce: refs = %d, released = %v", f.ID, f.refs, f.released)
		}
	}
	// Pooled exactly once: with every scratch frame still held, the pool can
	// hand each dead root out at most one more time.
	for i := 0; i < 2*frames; i++ {
		if err := takeScratch(); err != nil {
			return err
		}
	}
	for _, s := range scratch {
		s.Release()
	}
	return nil
}

// TestFrameReferenceConservation: whatever ends a hold — and in whatever
// order — every root's count returns to zero, its buffer is pooled exactly
// once and never while held, and every port accounts for each frame it was
// offered.
func TestFrameReferenceConservation(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		if err := conservationSim(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
