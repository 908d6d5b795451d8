package netsim

import (
	"sync"

	"tradenet/internal/trace"
)

// frameBufCap is the byte capacity of pooled frame buffers: comfortably
// above the largest legal frame (pkt.MaxFrameNoFCS), so building any frame
// into a pooled buffer never re-allocates.
const frameBufCap = 2048

// framePool recycles root frames — a Frame header that owns a frameBufCap
// byte buffer through its Data slice — and clonePool recycles the bare
// headers Clone hands to the legs of a traced frame. An untraced frame
// touches framePool alone, one Get and one Put however many receivers share
// it. They are sync.Pools (not free lists) because core.RunParallel runs
// independent simulations on separate goroutines that share this package.
var (
	framePool = sync.Pool{
		New: func() any {
			f := &Frame{Data: make([]byte, 0, frameBufCap), pooled: true}
			f.root = f
			return f
		},
	}
	clonePool = sync.Pool{
		New: func() any { return &Frame{pooled: true} },
	}
)

// NewFrame returns an empty pooled frame. Build the wire bytes by appending
// to Data (capacity frameBufCap is pre-reserved) before the frame is first
// sent; after that the bytes are immutable. Pass ownership along with the
// frame: whoever terminates it calls Release.
//
//simlint:allow sharedstate: framePool is a sync.Pool — concurrency-safe by contract, and a recycled buffer carries no observable state between runs
func NewFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.Data = f.Data[:0]
	f.Origin = 0
	f.ID = 0
	// f.Trace is already nil: fresh frames start nil and Release clears it
	// before pooling. Not storing here keeps this path free of GC write
	// barriers (a nil pointer store still pays one). f.root is the frame
	// itself for life, for the same reason.
	f.refs = 1
	f.released = false
	return f
}

// NewFrameBytes returns a pooled frame whose Data is a copy of data.
func NewFrameBytes(data []byte) *Frame {
	f := NewFrame()
	f.Data = append(f.Data, data...)
	return f
}

// Release gives up one hold on the frame. A clone header goes back to its
// pool at once; a root goes back to its pool, and is marked released, only
// when its last hold — the builder's, a sharing Clone's or a header's, in any
// order — is given up. It is a no-op for frames not obtained from a pool
// (hand-built test frames) and for a frame nobody holds, so terminal points
// can release unconditionally and a second release of a header, or of a
// frame's last hold, is harmless. A shared frame cannot tell its holders
// apart: one holder releasing twice takes a sibling's hold, so each Clone is
// matched by exactly one Release.
//
// Release only at provably-terminal points: address-filter discards, queue
// tail-drops, in-flight losses, and consumers that are done with the bytes.
// Frames handed to an application callback may be retained by it (e.g. a
// normalizer defers processing); infrastructure must not release those.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if t := f.Trace; t != nil {
		// Catch-all terminal: a consumer done with the bytes (and anything
		// that forgot an explicit terminal) closes the trace as consumed at
		// its last recorded instant. Paths with a more specific terminal
		// (drop, blackhole, loss, purge) finish the trace before releasing.
		t.Finish(trace.EndConsumed)
		f.Trace = nil
	}
	if !f.pooled || f.released {
		return
	}
	r := f.root
	if r != f {
		// A header: drop the aliases so an idle header pins no buffer.
		f.released = true
		f.Data, f.root = nil, nil
		//simlint:allow sharedstate: returning to the sync.Pool is concurrency-safe by contract; the header is dead and carries no state into its next run
		clonePool.Put(f)
		if r == nil {
			return // header over a hand-built frame: the GC owns the bytes
		}
	}
	if r.refs--; r.refs == 0 {
		r.released = true
		//simlint:allow sharedstate: returning to the sync.Pool is concurrency-safe by contract; the frame is dead and carries no state into its next run
		framePool.Put(r)
	}
}
