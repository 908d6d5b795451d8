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
	f.Data = append(f.Data[:14], 1, 2) // want `in-place append over the Data of a netsim\.Frame`
	_ = append(f.Data[:0], src...)     // want `in-place append over the Data of a netsim\.Frame`
}

// Good builds frames by appending past the length and only reads received
// ones.
func Good(f *netsim.Frame, src, dst pkt.UDPAddr, payload []byte) []byte {
	fr := netsim.NewFrame()
	fr.Data = pkt.AppendUDPFrame(fr.Data, src, dst, 7, payload)
	fr.Data = append(fr.Data, payload...)
	fr.Release()

	hand := &netsim.Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 7, payload)}
	hand.Release()

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
