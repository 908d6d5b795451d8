package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// Frame-sharing contract tests. A clone is a header that aliases its
// original's bytes; the buffer returns to the pool when the last holder of
// the tree releases, whatever the order. These pin that contract for pooled
// and hand-built roots, alone and with several simulations sharing the pools.

func TestFrameClone(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size > 64 {
		t.Fatalf("Frame header is %d bytes, want at most one 64-byte cache line", size)
	}
	pooled := NewFrameBytes([]byte{1, 2, 3})
	pooled.Origin, pooled.ID = 5, 9
	for name, f := range map[string]*Frame{
		"pooled":     pooled,
		"hand-built": {Data: []byte{1, 2, 3}, Origin: 5, ID: 9},
	} {
		c := f.Clone()
		if c.Origin != 5 || c.ID != 9 {
			t.Fatalf("%s: clone lost Origin/ID: %v/%d", name, c.Origin, c.ID)
		}
		if len(c.Data) != 3 || &c.Data[0] != &f.Data[0] {
			t.Fatalf("%s: clone does not alias the original's bytes", name)
		}
		if cap(c.Data) != len(c.Data) {
			t.Fatalf("%s: clone capacity %d not clamped to length %d", name, cap(c.Data), len(c.Data))
		}
		f.Release()
		if !bytes.Equal(c.Data, []byte{1, 2, 3}) {
			t.Fatalf("%s: clone bytes changed when the original was released", name)
		}
		c.Release()
	}
	if pooled.refs != 0 {
		t.Fatalf("pooled root refs = %d after every holder released", pooled.refs)
	}
}

// holder is one reference into a clone tree and the bytes it must read.
type holder struct {
	f    *Frame
	want []byte
	live bool
}

// cloneTree grows one random clone tree (clones of clones, over a pooled or
// a hand-built root) and releases it in random order, root-first included.
// After every step each live holder must still read its bytes and the
// root's reference count must equal the number of live holders. Frames
// taken from the pool meanwhile are scribbled on: a buffer pooled while
// somebody still holds it would be handed out there and the scribble would
// show. doubleRelease also releases every holder a second time at once; it
// is for single-goroutine callers, since a header that has gone back to a
// shared pool may already be another goroutine's.
func cloneTree(rng *rand.Rand, doubleRelease bool) error {
	body := make([]byte, 1+rng.Intn(1500))
	rng.Read(body)
	pooledRoot := rng.Intn(4) != 0
	root := &Frame{Data: append([]byte(nil), body...)}
	if pooledRoot {
		root = NewFrameBytes(body)
	}
	root.Origin, root.ID = sim.Time(rng.Int63()), rng.Uint64()

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
			src := pick()
			c := src.f.Clone()
			if cap(c.Data) != len(c.Data) || &c.Data[0] != &src.f.Data[0] {
				return fmt.Errorf("clone does not alias its source with clamped capacity")
			}
			hs = append(hs, &holder{f: c, want: src.want, live: true})
			live++
		case op < 5:
			// An append on a replica must reallocate, not write through into
			// capacity its siblings share.
			if h := pick(); h.f != root {
				b := byte(rng.Intn(256))
				h.f.Data = append(h.f.Data, b)
				h.want = append(h.want[:len(h.want):len(h.want)], b)
			}
		default:
			h := pick()
			h.f.Release()
			h.live = false
			live--
			if doubleRelease || (h.f == root && live > 0) {
				// A released root with live clones is not in any pool yet, so
				// a second release is a safe no-op for every caller.
				h.f.Release()
			}
			if live > 0 && takeScratch() == root {
				return fmt.Errorf("root buffer handed out by the pool with %d holders alive", live)
			}
		}
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
		}
		if want := int32(live); pooledRoot && root.refs != want {
			return fmt.Errorf("root refs = %d with %d live holders", root.refs, want)
		}
	}
	if root.refs != 0 || root.released != pooledRoot {
		return fmt.Errorf("extinct tree: root refs = %d, released = %v (pooled %v)", root.refs, root.released, pooledRoot)
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
type replicator struct{ outs []*Port }

func (r *replicator) HandleFrame(_ *Port, f *Frame) {
	for i, out := range r.outs {
		ff := f
		if i < len(r.outs)-1 {
			ff = f.Clone()
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
