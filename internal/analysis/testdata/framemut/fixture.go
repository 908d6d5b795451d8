// Package fixture exercises framemut from outside package netsim, where
// every write into an existing frame's bytes is a write into its replicas.
package fixture

import (
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
)

type rx struct {
	frames []*netsim.Frame
	last   netsim.Frame
}

// Bad writes into bytes that replicas of the frame may share.
func Bad(f *netsim.Frame, r *rx, src []byte) {
	f.Data[0] = 1                      // want `store into the Data of a netsim\.Frame`
	f.Data[3] |= 0x80                  // want `store into the Data of a netsim\.Frame`
	f.Data[7]++                        // want `store into the Data of a netsim\.Frame`
	(f.Data[2:])[0] = 9                // want `store into the Data of a netsim\.Frame`
	r.frames[0].Data[20] = 0xFF        // want `store into the Data of a netsim\.Frame`
	r.last.Data[1] = 2                 // want `store into the Data of a netsim\.Frame`
	copy(f.Data, src)                  // want `copy into the Data of a netsim\.Frame`
	copy(f.Data[14:], src)             // want `copy into the Data of a netsim\.Frame`
	f.Data = append(f.Data[:14], 1, 2) // want `in-place append over the Data of a netsim\.Frame` `assignment to the Data of a netsim\.Frame`
	_ = append(f.Data[:0], src...)     // want `in-place append over the Data of a netsim\.Frame`
}

// BadFields sets fields of frames other holders may share: a sent frame is
// one object in front of every receiver, and Clone may return its receiver.
func BadFields(f *netsim.Frame, r *rx, payload []byte) {
	f.Data = append(f.Data, payload...) // want `assignment to the Data of a netsim\.Frame`
	f.Origin = 0                        // want `assignment to the Origin of a netsim\.Frame`
	f.ID++                              // want `assignment to the ID of a netsim\.Frame`
	f.Origin += 5                       // want `assignment to the Origin of a netsim\.Frame`
	r.frames[0].ID = 1                  // want `assignment to the ID of a netsim\.Frame`
	r.last.Data = nil                   // want `assignment to the Data of a netsim\.Frame`

	c := f.Clone()
	c.Data = append(c.Data, 1) // want `assignment to the Data of a netsim\.Frame`
	c.Release()

	// A variable that was ever bound to anything but a builder is not a
	// frame under construction.
	g := netsim.NewFrame()
	g.Release()
	g = f
	g.ID = 2 // want `assignment to the ID of a netsim\.Frame`

	var h *netsim.Frame
	h = r.frames[0]
	h.Origin = 3 // want `assignment to the Origin of a netsim\.Frame`

	for _, q := range r.frames {
		q.ID = 4 // want `assignment to the ID of a netsim\.Frame`
	}
}

// Good builds frames by appending past the length and only reads received
// ones.
func Good(f *netsim.Frame, src, dst pkt.UDPAddr, payload []byte) []byte {
	fr := netsim.NewFrame()
	fr.Data = pkt.AppendUDPFrame(fr.Data, src, dst, 7, payload)
	fr.Data = append(fr.Data, payload...)
	fr.Release()

	hand := &netsim.Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 7, payload)}
	hand.Origin, hand.ID = 5, 9
	hand.Release()

	// Every field may be set on a frame this code built, inside a closure
	// too, and on one rebound to another fresh frame.
	func() {
		b := netsim.NewFrameBytes(payload)
		b.Origin = 1
		b.ID++
		b.Release()
		b = netsim.NewFrame()
		b.Data = append(b.Data, payload...)
		b.Release()
	}()
	var val netsim.Frame = netsim.Frame{Data: payload}
	val.ID = 3

	// Trace is per-holder state: stealing or clearing it on a received
	// frame is how consumers hand a trace on.
	if f.Trace != nil {
		f.Trace = nil
	}

	// Reads, re-slices and copies out of a frame are fine.
	out := make([]byte, len(f.Data))
	copy(out, f.Data)
	out[0] = f.Data[0]
	tail := f.Data[14:]
	_ = tail

	// Other Data fields and other slices are not frames.
	var other struct{ Data []byte }
	other.Data = append(other.Data[:0], 1)
	other.Data[0] = 2
	return append(out[:1], f.Data...)
}
