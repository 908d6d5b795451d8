package pkt

import (
	"encoding/binary"
	"errors"
)

// Header lengths in bytes. EthernetHeaderLen excludes the 4-byte FCS, which
// the simulator accounts separately in frame-on-wire size; the paper's
// "40 bytes of network headers" is Ethernet (14) + IPv4 (20) + UDP (8),
// counting neither preamble nor FCS.
const (
	EthernetHeaderLen = 14
	EthernetFCSLen    = 4
	IPv4HeaderLen     = 20
	UDPHeaderLen      = 8
	TCPHeaderLen      = 20

	// MinFrame and MaxFrame are classic Ethernet limits (without FCS the
	// minimum payload pads a frame to 60 bytes; with FCS, 64 — Table 1's
	// Exchange B minimum of 64 is a minimum-size frame).
	MinFrameNoFCS = 60
	MaxFrameNoFCS = 1514
)

// EtherType values used by the simulator.
const (
	EtherTypeIPv4 uint16 = 0x0800
)

// IP protocol numbers.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Common errors returned by decoders.
var (
	ErrTruncated = errors.New("pkt: truncated packet")
	ErrBadField  = errors.New("pkt: malformed header field")
)

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// Encode appends the header to b and returns the extended slice.
func (h *Ethernet) Encode(b []byte) []byte {
	b = append(b, h.Dst[:]...)
	b = append(b, h.Src[:]...)
	return binary.BigEndian.AppendUint16(b, h.EtherType)
}

// Decode fills h from the front of b and returns the remaining bytes.
func (h *Ethernet) Decode(b []byte) ([]byte, error) {
	if len(b) < EthernetHeaderLen {
		return nil, ErrTruncated
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return b[EthernetHeaderLen:], nil
}

// IPv4 is a decoded IPv4 header (no options).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst IP4
}

// Encode appends the header to b, computing the checksum, and returns the
// extended slice. TotalLen must already cover header plus payload.
func (h *IPv4) Encode(b []byte) []byte {
	start := len(b)
	b = append(b, 0x45, h.TOS) // version 4, IHL 5
	b = binary.BigEndian.AppendUint16(b, h.TotalLen)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = binary.BigEndian.AppendUint16(b, 0x4000) // DF, no fragments
	b = append(b, h.TTL, h.Protocol, 0, 0)       // checksum placeholder
	b = append(b, h.Src[:]...)
	b = append(b, h.Dst[:]...)
	ck := InternetChecksum(b[start : start+IPv4HeaderLen])
	binary.BigEndian.PutUint16(b[start+10:start+12], ck)
	return b
}

// Decode fills h from the front of b, verifying version, IHL, and checksum,
// and returns the remaining bytes.
func (h *IPv4) Decode(b []byte) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	if b[0] != 0x45 {
		return nil, ErrBadField
	}
	if InternetChecksum(b[:IPv4HeaderLen]) != 0 {
		return nil, ErrBadField
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) > len(b) {
		return nil, ErrTruncated
	}
	return b[IPv4HeaderLen:], nil
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload
	Checksum         uint16
}

// Encode appends the header to b and returns the extended slice. The
// checksum is left zero (legal for IPv4 UDP); feed integrity in the
// simulator is carried by the application-layer sequence numbers, as it is
// on real feeds.
func (h *UDP) Encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint16(b, h.Length)
	return binary.BigEndian.AppendUint16(b, h.Checksum)
}

// Decode fills h from the front of b and returns the remaining bytes.
func (h *UDP) Decode(b []byte) ([]byte, error) {
	if len(b) < UDPHeaderLen {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return nil, ErrTruncated
	}
	return b[UDPHeaderLen:], nil
}

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// TCP is a decoded TCP header (no options).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// Encode appends the header to b and returns the extended slice.
func (h *TCP) Encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint32(b, h.Seq)
	b = binary.BigEndian.AppendUint32(b, h.Ack)
	b = append(b, 5<<4, h.Flags) // data offset 5 words
	b = binary.BigEndian.AppendUint16(b, h.Window)
	return append(b, 0, 0, 0, 0) // checksum + urgent, unused in simulation
}

// Decode fills h from the front of b and returns the remaining bytes.
func (h *TCP) Decode(b []byte) ([]byte, error) {
	if len(b) < TCPHeaderLen {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return nil, ErrBadField
	}
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	return b[off:], nil
}

// InternetChecksum computes the RFC 1071 ones-complement checksum of b.
// Computing it over a header whose checksum field holds the transmitted
// value yields zero for an intact header.
func InternetChecksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
