package pkt

import (
	"bytes"
	"testing"
)

// FuzzParseFrame holds the header-stack parsers to two properties. On any
// bytes, ParseUDPFrame and ParseTCPFrame never panic, and a payload they
// accept is the length its headers declare. On any addresses and payload,
// an AppendUDPFrame output — padded to the Ethernet minimum, as on the
// wire — parses back to those addresses and exactly that payload, and is
// refused by the TCP parser.
func FuzzParseFrame(f *testing.F) {
	src := UDPAddr{MAC: HostMAC(1), IP: HostIP(1), Port: 5000}
	grp := IP4{239, 1, 0, 3}
	dst := UDPAddr{MAC: MulticastMAC(grp), IP: grp, Port: 30003}
	payload := []byte("ADD ORDER AAPL 150.25")
	f.Add(AppendUDPFrame(nil, src, dst, 99, payload), uint32(1), uint32(2), uint16(5000), uint16(30003), uint16(99), payload)
	tcp := AppendTCPFrame(nil, src, dst, &TCP{Seq: 1000, Flags: FlagACK | FlagPSH}, []byte("NEW ORDER"))
	f.Add(tcp, uint32(3), uint32(4), uint16(40000), uint16(443), uint16(0), []byte{})
	f.Add(AppendCompactFrame(nil, src.MAC, dst.MAC, &Compact{}, payload), uint32(0), uint32(0), uint16(0), uint16(0), uint16(0), []byte{})
	f.Add(tcp[:EthernetHeaderLen+IPv4HeaderLen+4], uint32(0), uint32(0), uint16(0), uint16(0), uint16(0), []byte{})

	f.Fuzz(func(t *testing.T, data []byte, srcID, dstID uint32, srcPort, dstPort, ipID uint16, payload []byte) {
		var uf UDPFrame
		if ParseUDPFrame(data, &uf) == nil && len(uf.Payload) != int(uf.UDP.Length)-UDPHeaderLen {
			t.Fatalf("UDP payload %d bytes, header declares %d", len(uf.Payload), int(uf.UDP.Length)-UDPHeaderLen)
		}
		var tf TCPFrame
		if ParseTCPFrame(data, &tf) == nil && len(tf.Payload) != int(tf.IP.TotalLen)-IPv4HeaderLen-TCPHeaderLen {
			t.Fatalf("TCP payload %d bytes, header declares %d", len(tf.Payload), int(tf.IP.TotalLen)-IPv4HeaderLen-TCPHeaderLen)
		}

		if len(payload) > 1472 {
			payload = payload[:1472]
		}
		s := UDPAddr{MAC: HostMAC(srcID), IP: HostIP(srcID), Port: srcPort}
		d := UDPAddr{MAC: HostMAC(dstID), IP: HostIP(dstID), Port: dstPort}
		frame := AppendUDPFrame(nil, s, d, ipID, payload)
		for len(frame) < MinFrameNoFCS {
			frame = append(frame, 0)
		}
		if err := ParseUDPFrame(frame, &uf); err != nil {
			t.Fatalf("parse of an appended frame: %v", err)
		}
		if uf.Eth.Src != s.MAC || uf.Eth.Dst != d.MAC || uf.IP.Src != s.IP || uf.IP.Dst != d.IP ||
			uf.UDP.SrcPort != srcPort || uf.UDP.DstPort != dstPort || uf.IP.ID != ipID {
			t.Fatalf("headers do not round-trip: %+v", uf)
		}
		if !bytes.Equal(uf.Payload, payload) {
			t.Fatalf("payload %q, want %q", uf.Payload, payload)
		}
		if err := ParseTCPFrame(frame, &tf); err != ErrBadField {
			t.Fatalf("TCP parse of a UDP frame: err %v, want ErrBadField", err)
		}
	})
}
