package capture

import (
	"bytes"
	"testing"

	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf, 0)
	f1 := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	f2 := make([]byte, 100)
	at1 := sim.Time(1_500_000_000) * sim.Time(sim.Nanosecond) // 1.5s
	at2 := at1.Add(613 * sim.Nanosecond)
	if err := w.WriteFrame(at1, f1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(at2, f2); err != nil {
		t.Fatal(err)
	}
	if w.Frames != 2 {
		t.Fatalf("frames = %d", w.Frames)
	}
	pkts, err := ReadPcap(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("parsed %d packets", len(pkts))
	}
	if pkts[0].At != at1 || pkts[1].At != at2 {
		t.Fatalf("timestamps %v %v", pkts[0].At, pkts[1].At)
	}
	if !bytes.Equal(pkts[0].Data, f1) || len(pkts[1].Data) != 100 {
		t.Fatal("payloads corrupted")
	}
	if pkts[1].Orig != 100 {
		t.Fatalf("orig = %d", pkts[1].Orig)
	}
}

func TestPcapSnaplenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf, 16)
	frame := make([]byte, 64)
	if err := w.WriteFrame(0, frame); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadPcap(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts[0].Data) != 16 || pkts[0].Orig != 64 {
		t.Fatalf("caplen=%d orig=%d", len(pkts[0].Data), pkts[0].Orig)
	}
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap([]byte{1, 2, 3}); err != ErrBadPcap {
		t.Fatalf("short: %v", err)
	}
	var buf bytes.Buffer
	w := NewPcapWriter(&buf, 0)
	w.WriteFrame(0, []byte{1, 2, 3})
	data := buf.Bytes()
	data[0] ^= 0xFF // wrong magic
	if _, err := ReadPcap(data); err != ErrBadPcap {
		t.Fatalf("magic: %v", err)
	}
	data[0] ^= 0xFF
	// Truncated record body.
	if _, err := ReadPcap(data[:len(data)-1]); err != ErrBadPcap {
		t.Fatalf("truncated: %v", err)
	}
}

// Tap-to-pcap integration: a port tap feeds the writer; the file replays
// with exact simulated timestamps and real frame bytes.
func TestPortTapToPcap(t *testing.T) {
	sched := sim.NewScheduler(5)
	h1, h2 := netsim.NewHost(sched, "a"), netsim.NewHost(sched, "b")
	n1, n2 := h1.AddNIC("x", 1), h2.AddNIC("x", 2)
	netsim.Connect(n1.Port, n2.Port, units.Rate10G, 0)
	n2.OnFrame = func(*netsim.NIC, *netsim.Frame) {}

	var buf bytes.Buffer
	w := NewPcapWriter(&buf, 0)
	n1.Port.Tap = func(f *netsim.Frame, at sim.Time) {
		if err := w.WriteFrame(at, f.Data); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("ADD AAPL 150.25")
	sched.At(sim.Time(sim.Microsecond), func() {
		n1.Send(netsim.NewFrameBytes(pkt.AppendUDPFrame(nil, n1.Addr(1), n2.Addr(2), 7, payload)))
	})
	sched.Run()

	pkts, err := ReadPcap(buf.Bytes())
	if err != nil || len(pkts) != 1 {
		t.Fatalf("pkts=%d err=%v", len(pkts), err)
	}
	if pkts[0].At != sim.Time(sim.Microsecond) {
		t.Fatalf("timestamp = %v", pkts[0].At)
	}
	var uf pkt.UDPFrame
	if err := pkt.ParseUDPFrame(pkts[0].Data, &uf); err != nil {
		t.Fatalf("captured frame unparsable: %v", err)
	}
	if string(uf.Payload) != string(payload) || uf.IP.ID != 7 {
		t.Fatal("captured payload corrupted")
	}
}
