// Package fixture is type-checked as tradenet/internal/netsim, the package
// that constructs frames, so framemut leaves its stores alone.
package fixture

// Frame stands in for netsim.Frame under the exempt import path.
type Frame struct{ Data []byte }

// Fill writes into a frame under construction.
func Fill(f *Frame, src []byte) {
	f.Data = f.Data[:cap(f.Data)]
	f.Data[0] = 1
	copy(f.Data[1:], src)
	f.Data = append(f.Data[:1], src...)
}
