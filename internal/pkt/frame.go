package pkt

// UDPAddr names one side of a UDP exchange in the simulated network.
type UDPAddr struct {
	MAC  MAC
	IP   IP4
	Port uint16
}

// AppendUDPFrame assembles a complete Ethernet+IPv4+UDP frame carrying
// payload from src to dst, appending to b (which may be nil) and returning
// the extended slice. The result excludes the FCS; WireSize accounts for it.
func AppendUDPFrame(b []byte, src, dst UDPAddr, ipID uint16, payload []byte) []byte {
	eth := Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: EtherTypeIPv4}
	b = eth.Encode(b)
	ip := IPv4{
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + len(payload)),
		ID:       ipID,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      src.IP,
		Dst:      dst.IP,
	}
	b = ip.Encode(b)
	udp := UDP{SrcPort: src.Port, DstPort: dst.Port, Length: uint16(UDPHeaderLen + len(payload))}
	b = udp.Encode(b)
	return append(b, payload...)
}

// AppendTCPFrame assembles an Ethernet+IPv4+TCP frame carrying payload.
func AppendTCPFrame(b []byte, src, dst UDPAddr, tcp *TCP, payload []byte) []byte {
	eth := Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: EtherTypeIPv4}
	b = eth.Encode(b)
	ip := IPv4{
		TotalLen: uint16(IPv4HeaderLen + TCPHeaderLen + len(payload)),
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      src.IP,
		Dst:      dst.IP,
	}
	b = ip.Encode(b)
	tcp.SrcPort, tcp.DstPort = src.Port, dst.Port
	b = tcp.Encode(b)
	return append(b, payload...)
}

// UDPFrame is the result of parsing a UDP datagram's full header stack.
type UDPFrame struct {
	Eth     Ethernet
	IP      IPv4
	UDP     UDP
	Payload []byte // aliases the input frame; valid while the frame is
}

// ParseUDPFrame decodes the Ethernet, IPv4, and UDP headers of frame into f.
// It performs zero allocations: f.Payload aliases frame's storage.
func ParseUDPFrame(frame []byte, f *UDPFrame) error {
	rest, err := f.Eth.Decode(frame)
	if err != nil {
		return err
	}
	if f.Eth.EtherType != EtherTypeIPv4 {
		return ErrBadField
	}
	rest, err = f.IP.Decode(rest)
	if err != nil {
		return err
	}
	if f.IP.Protocol != ProtoUDP {
		return ErrBadField
	}
	rest, err = f.UDP.Decode(rest)
	if err != nil {
		return err
	}
	f.Payload = rest[:int(f.UDP.Length)-UDPHeaderLen]
	return nil
}

// TCPFrame is the result of parsing a TCP segment's full header stack.
type TCPFrame struct {
	Eth     Ethernet
	IP      IPv4
	TCP     TCP
	Payload []byte
}

// ParseTCPFrame decodes the Ethernet, IPv4, and TCP headers of frame into f.
func ParseTCPFrame(frame []byte, f *TCPFrame) error {
	rest, err := f.Eth.Decode(frame)
	if err != nil {
		return err
	}
	if f.Eth.EtherType != EtherTypeIPv4 {
		return ErrBadField
	}
	rest, err = f.IP.Decode(rest)
	if err != nil {
		return err
	}
	if f.IP.Protocol != ProtoTCP {
		return ErrBadField
	}
	rest, err = f.TCP.Decode(rest)
	if err != nil {
		return err
	}
	n := int(f.IP.TotalLen) - IPv4HeaderLen - TCPHeaderLen
	if n < 0 || n > len(rest) {
		return ErrTruncated
	}
	f.Payload = rest[:n]
	return nil
}

// WireSize returns the size of a frame as it occupies the wire for
// serialization-delay purposes: the frame bytes plus FCS, padded to the
// Ethernet minimum. (Preamble and inter-frame gap are charged by the link
// model, not here.)
func WireSize(frameLen int) int {
	if frameLen < MinFrameNoFCS {
		frameLen = MinFrameNoFCS
	}
	return frameLen + EthernetFCSLen
}

// UDPOverhead is the per-datagram header byte count the paper's §3 cites:
// "40 bytes of network headers" (Ethernet 14 + IPv4 20 + UDP 8 = 42; the
// paper rounds to 40 because it counts Ethernet addressing as 12).
const UDPOverhead = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen

// CompactHeaderLen is the size of the §5 "custom transport protocol"
// header the overhead experiment costs out: a stream id for filtering and
// load balancing, a sequence number and a message count (2+4+2 bytes),
// replacing the IPv4 and UDP headers trading software routinely ignores.
const CompactHeaderLen = 8
