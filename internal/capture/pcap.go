// Package capture writes and reads the classic libpcap format, so taps on
// the simulated network produce files Wireshark and tcpdump open directly
// (§2: trading firms record their traffic with precise timestamps).
package capture

import (
	"encoding/binary"
	"errors"
	"io"

	"tradenet/internal/sim"
)

// PcapWriter emits captured frames in the classic libpcap format with
// nanosecond timestamps (magic 0xa1b23c4d), so taps on the simulated
// network produce files Wireshark and tcpdump open directly — the §2
// monitoring/research workflow ("trading firms want to record their network
// traffic with precise timestamps").
//
// Simulated time is written as seconds/nanoseconds since the Unix epoch
// starting at 0; sub-nanosecond precision (the simulator keeps picoseconds)
// is truncated, matching what nanosecond pcap can express.
type PcapWriter struct {
	w       io.Writer
	snaplen uint32
	wrote   bool

	// Frames counts packets written.
	Frames uint64
}

const (
	pcapMagicNanos   = 0xa1b23c4d
	pcapVersionMaj   = 2
	pcapVersionMin   = 4
	pcapLinkEther    = 1
	pcapHeaderLen    = 24
	pcapRecHeaderLen = 16
)

// NewPcapWriter returns a writer emitting to w with the given snap length
// (0 means 65535).
func NewPcapWriter(w io.Writer, snaplen int) *PcapWriter {
	if snaplen <= 0 {
		snaplen = 65535
	}
	return &PcapWriter{w: w, snaplen: uint32(snaplen)}
}

func (p *PcapWriter) writeHeader() error {
	var h [pcapHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:], pcapMagicNanos)
	binary.LittleEndian.PutUint16(h[4:], pcapVersionMaj)
	binary.LittleEndian.PutUint16(h[6:], pcapVersionMin)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(h[16:], p.snaplen)
	binary.LittleEndian.PutUint32(h[20:], pcapLinkEther)
	_, err := p.w.Write(h[:])
	return err
}

// WriteFrame records one frame captured at simulated time at.
func (p *PcapWriter) WriteFrame(at sim.Time, frame []byte) error {
	if !p.wrote {
		if err := p.writeHeader(); err != nil {
			return err
		}
		p.wrote = true
	}
	caplen := uint32(len(frame))
	if caplen > p.snaplen {
		caplen = p.snaplen
	}
	var h [pcapRecHeaderLen]byte
	ns := int64(at) / int64(sim.Nanosecond)
	binary.LittleEndian.PutUint32(h[0:], uint32(ns/1_000_000_000))
	binary.LittleEndian.PutUint32(h[4:], uint32(ns%1_000_000_000))
	binary.LittleEndian.PutUint32(h[8:], caplen)
	binary.LittleEndian.PutUint32(h[12:], uint32(len(frame)))
	if _, err := p.w.Write(h[:]); err != nil {
		return err
	}
	if _, err := p.w.Write(frame[:caplen]); err != nil {
		return err
	}
	p.Frames++
	return nil
}

// PcapPacket is one parsed capture record.
type PcapPacket struct {
	At   sim.Time
	Orig int // original length on the wire
	Data []byte
}

// ErrBadPcap reports an unparsable capture file.
var ErrBadPcap = errors.New("capture: malformed pcap")

// ReadPcap parses a nanosecond-pcap byte stream (as produced by PcapWriter)
// and returns its packets. It exists so tests and tools can verify captures
// without external dependencies.
func ReadPcap(data []byte) ([]PcapPacket, error) {
	if len(data) < pcapHeaderLen {
		return nil, ErrBadPcap
	}
	if binary.LittleEndian.Uint32(data) != pcapMagicNanos {
		return nil, ErrBadPcap
	}
	if binary.LittleEndian.Uint32(data[20:]) != pcapLinkEther {
		return nil, ErrBadPcap
	}
	data = data[pcapHeaderLen:]
	var out []PcapPacket
	for len(data) > 0 {
		if len(data) < pcapRecHeaderLen {
			return nil, ErrBadPcap
		}
		sec := binary.LittleEndian.Uint32(data[0:])
		nsec := binary.LittleEndian.Uint32(data[4:])
		caplen := int(binary.LittleEndian.Uint32(data[8:]))
		orig := int(binary.LittleEndian.Uint32(data[12:]))
		data = data[pcapRecHeaderLen:]
		if caplen > len(data) {
			return nil, ErrBadPcap
		}
		out = append(out, PcapPacket{
			At:   sim.Time(int64(sec)*int64(sim.Second) + int64(nsec)*int64(sim.Nanosecond)),
			Orig: orig,
			Data: append([]byte(nil), data[:caplen]...),
		})
		data = data[caplen:]
	}
	return out, nil
}
