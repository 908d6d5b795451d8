package pkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x01, 0x00, 0x5e, 0x7f, 0xab, 0xcd}
	if m.String() != "01:00:5e:7f:ab:cd" {
		t.Fatalf("String = %q", m.String())
	}
	if !m.IsMulticast() {
		t.Fatal("group bit not detected")
	}
	if HostMAC(5).IsMulticast() {
		t.Fatal("host MAC must be unicast")
	}
}

func TestIP4Multicast(t *testing.T) {
	if !(IP4{239, 1, 2, 3}).IsMulticast() {
		t.Fatal("239/8 is multicast")
	}
	if (IP4{10, 0, 0, 1}).IsMulticast() {
		t.Fatal("10/8 is not multicast")
	}
	if !(IP4{224, 0, 0, 1}).IsMulticast() || (IP4{240, 0, 0, 1}).IsMulticast() {
		t.Fatal("multicast range boundaries wrong")
	}
}

func TestMulticastMACMapping(t *testing.T) {
	// RFC 1112: low 23 bits of group map into 01:00:5e:00:00:00.
	got := MulticastMAC(IP4{239, 129, 2, 3}) // 129 has high bit set; masked to 1
	want := MAC{0x01, 0x00, 0x5e, 0x01, 0x02, 0x03}
	if got != want {
		t.Fatalf("MulticastMAC = %v, want %v", got, want)
	}
}

func TestHostAddressesDeterministicAndDistinct(t *testing.T) {
	seen := map[MAC]bool{}
	seenIP := map[IP4]bool{}
	for id := uint32(0); id < 2000; id++ {
		m, ip := HostMAC(id), HostIP(id)
		if seen[m] || seenIP[ip] {
			t.Fatalf("collision at id %d", id)
		}
		seen[m], seenIP[ip] = true, true
	}
	if HostMAC(7) != HostMAC(7) || HostIP(7) != HostIP(7) {
		t.Fatal("addresses not deterministic")
	}
}

func TestMulticastGroupBlocksDisjoint(t *testing.T) {
	a := MulticastGroup(1, 5)
	b := MulticastGroup(2, 5)
	if a == b {
		t.Fatal("blocks must be disjoint")
	}
	if !a.IsMulticast() {
		t.Fatal("group not in multicast range")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	h := Ethernet{Dst: HostMAC(1), Src: HostMAC(2), EtherType: EtherTypeIPv4}
	b := h.Encode(nil)
	if len(b) != EthernetHeaderLen {
		t.Fatalf("encoded len = %d", len(b))
	}
	var got Ethernet
	rest, err := got.Decode(b)
	if err != nil || len(rest) != 0 || got != h {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
	if _, err := got.Decode(b[:10]); err != ErrTruncated {
		t.Fatalf("truncated decode err = %v", err)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4{TOS: 0x10, TotalLen: 100, ID: 42, TTL: 64, Protocol: ProtoUDP,
		Src: HostIP(1), Dst: IP4{239, 1, 0, 9}}
	b := h.Encode(nil)
	b = append(b, make([]byte, 80)...) // payload padding to match TotalLen
	var got IPv4
	_, err := got.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TotalLen != 100 || got.Protocol != ProtoUDP {
		t.Fatalf("fields: %+v", got)
	}
	// Corrupt one byte: checksum must catch it.
	b[16] ^= 0xff
	if _, err := got.Decode(b); err != ErrBadField {
		t.Fatalf("corrupted header decode err = %v", err)
	}
}

func TestIPv4DecodeRejectsOptionsAndTruncation(t *testing.T) {
	var h IPv4
	bad := make([]byte, IPv4HeaderLen)
	bad[0] = 0x46 // IHL 6: options unsupported
	if _, err := h.Decode(bad); err != ErrBadField {
		t.Fatalf("IHL6 err = %v", err)
	}
	if _, err := h.Decode(bad[:10]); err != ErrTruncated {
		t.Fatalf("short err = %v", err)
	}
	// TotalLen exceeding buffer is truncation.
	good := (&IPv4{TotalLen: 500, TTL: 1, Protocol: ProtoUDP}).Encode(nil)
	if _, err := h.Decode(good); err != ErrTruncated {
		t.Fatalf("overlong TotalLen err = %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDP{SrcPort: 3000, DstPort: 30001, Length: UDPHeaderLen + 5}
	b := h.Encode(nil)
	b = append(b, 1, 2, 3, 4, 5)
	var got UDP
	rest, err := got.Decode(b)
	if err != nil || got != h {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
	if len(rest) != 5 {
		t.Fatalf("rest = %d", len(rest))
	}
	// Length below header size is invalid.
	bad := (&UDP{Length: 4}).Encode(nil)
	if _, err := got.Decode(bad); err != ErrTruncated {
		t.Fatalf("bad length err = %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCP{SrcPort: 40000, DstPort: 443, Seq: 0xdeadbeef, Ack: 77, Flags: FlagACK | FlagPSH, Window: 65535}
	b := h.Encode(nil)
	if len(b) != TCPHeaderLen {
		t.Fatalf("len = %d", len(b))
	}
	var got TCP
	rest, err := got.Decode(b)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v want %+v", got, h)
	}
	bad := append([]byte(nil), b...)
	bad[12] = 3 << 4 // data offset below minimum
	if _, err := got.Decode(bad); err != ErrBadField {
		t.Fatalf("bad offset err = %v", err)
	}
}

func TestInternetChecksumProperties(t *testing.T) {
	// Known vector (RFC 1071 example).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if ck := InternetChecksum(data); ck != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x", ck)
	}
	// Odd length handled.
	_ = InternetChecksum([]byte{0xab})
	// Verification property: checksum over data+checksum is 0.
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		ck := InternetChecksum(data)
		withCk := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return InternetChecksum(withCk) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPFrameRoundTrip(t *testing.T) {
	src := UDPAddr{MAC: HostMAC(1), IP: HostIP(1), Port: 5000}
	grp := IP4{239, 1, 0, 3}
	dst := UDPAddr{MAC: MulticastMAC(grp), IP: grp, Port: 30003}
	payload := []byte("ADD ORDER AAPL 150.25")
	frame := AppendUDPFrame(nil, src, dst, 99, payload)
	if len(frame) != UDPOverhead+len(payload) {
		t.Fatalf("frame len = %d", len(frame))
	}
	var f UDPFrame
	if err := ParseUDPFrame(frame, &f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Fatalf("payload = %q", f.Payload)
	}
	if f.IP.Dst != grp || f.Eth.Dst != dst.MAC || f.UDP.DstPort != 30003 || f.IP.ID != 99 {
		t.Fatalf("headers: %+v", f)
	}
}

func TestParseUDPFrameRejectsWrongProtocols(t *testing.T) {
	src := UDPAddr{MAC: HostMAC(1), IP: HostIP(1), Port: 1}
	dst := UDPAddr{MAC: HostMAC(2), IP: HostIP(2), Port: 2}
	tcpFrame := AppendTCPFrame(nil, src, dst, &TCP{Flags: FlagSYN}, nil)
	var f UDPFrame
	if err := ParseUDPFrame(tcpFrame, &f); err != ErrBadField {
		t.Fatalf("TCP-in-UDP parse err = %v", err)
	}
	nonIP := Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: 0x88B5} // a local experimental ethertype
	if err := ParseUDPFrame(append(nonIP.Encode(nil), make([]byte, 28)...), &f); err != ErrBadField {
		t.Fatalf("non-IPv4 parse err = %v", err)
	}
}

func TestTCPFrameRoundTrip(t *testing.T) {
	src := UDPAddr{MAC: HostMAC(1), IP: HostIP(1), Port: 40000}
	dst := UDPAddr{MAC: HostMAC(2), IP: HostIP(2), Port: 443}
	payload := []byte("NEW ORDER")
	frame := AppendTCPFrame(nil, src, dst, &TCP{Seq: 1000, Flags: FlagACK | FlagPSH}, payload)
	var f TCPFrame
	if err := ParseTCPFrame(frame, &f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, payload) || f.TCP.Seq != 1000 || f.TCP.DstPort != 443 {
		t.Fatalf("parse: %+v", f)
	}
}

func TestWireSizePadsToMinimum(t *testing.T) {
	if WireSize(42) != MinFrameNoFCS+EthernetFCSLen {
		t.Fatalf("small frame wire size = %d", WireSize(42))
	}
	if WireSize(1514) != 1518 {
		t.Fatalf("max frame wire size = %d", WireSize(1514))
	}
}

func BenchmarkParseUDPFrame(b *testing.B) {
	src := UDPAddr{MAC: HostMAC(1), IP: HostIP(1), Port: 5000}
	grp := IP4{239, 1, 0, 3}
	dst := UDPAddr{MAC: MulticastMAC(grp), IP: grp, Port: 30003}
	frame := AppendUDPFrame(nil, src, dst, 0, make([]byte, 64))
	var f UDPFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ParseUDPFrame(frame, &f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendUDPFrame(b *testing.B) {
	src := UDPAddr{MAC: HostMAC(1), IP: HostIP(1), Port: 5000}
	dst := UDPAddr{MAC: HostMAC(2), IP: HostIP(2), Port: 30003}
	payload := make([]byte, 64)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendUDPFrame(buf[:0], src, dst, uint16(i), payload)
	}
}
