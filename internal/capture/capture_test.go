package capture

import (
	"bytes"
	"math/rand"
	"testing"

	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

func TestClockOffsetAndDrift(t *testing.T) {
	// 100 ppb fast clock with 1 µs initial offset.
	c := NewClock(sim.Microsecond, 100)
	if c.Read(0) != sim.Time(sim.Microsecond) {
		t.Fatalf("read(0) = %v", c.Read(0))
	}
	// After 1 s, drift adds 100 ns.
	got := c.Error(sim.Time(sim.Second))
	want := sim.Microsecond + 100*sim.Nanosecond
	if got != want {
		t.Fatalf("error after 1s = %v, want %v", got, want)
	}
}

func TestClockSyncBoundsError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewClock(50*sim.Microsecond, 200)
	now := sim.Time(sim.Second)
	c.Sync(now, 100*sim.Nanosecond, rng)
	e := c.Error(now)
	if e > 100*sim.Nanosecond || e < -100*sim.Nanosecond {
		t.Fatalf("post-sync error = %v", e)
	}
	// Perfect sync (precision 0) zeroes the offset.
	c.Sync(now, 0, rng)
	if c.Error(now) != 0 {
		t.Fatal("perfect sync should zero error")
	}
	// Drift resumes accumulating from the sync point.
	if c.Error(now.Add(sim.Second)) != 200*sim.Nanosecond {
		t.Fatalf("drift after sync = %v", c.Error(now.Add(sim.Second)))
	}
}

func TestRecorderCapturesWithClockError(t *testing.T) {
	c := NewClock(10*sim.Nanosecond, 0)
	r := NewRecorder(c, "exchange-tap")
	r.Capture(sim.Time(100*sim.Nanosecond), 64)
	r.Capture(sim.Time(200*sim.Nanosecond), 128)
	recs := r.Records()
	if len(recs) != 2 || recs[0].Point != "exchange-tap" || recs[1].FrameLen != 128 {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Stamped != sim.Time(110*sim.Nanosecond) {
		t.Fatalf("stamped = %v", recs[0].Stamped)
	}
	if r.MaxTimestampError() != 10*sim.Nanosecond {
		t.Fatalf("max error = %v", r.MaxTimestampError())
	}
}

func TestOrderingErrorsDetectInversions(t *testing.T) {
	// Two taps with clocks 50 ns apart observe events 10 ns apart: the
	// merged capture misorders them.
	good := NewClock(0, 0)
	bad := NewClock(-50*sim.Nanosecond, 0)
	ra := NewRecorder(good, "a")
	rb := NewRecorder(bad, "b")
	ra.Capture(sim.Time(100*sim.Nanosecond), 64)
	rb.Capture(sim.Time(110*sim.Nanosecond), 64) // stamped 60ns: inverted
	all := append(ra.Records(), rb.Records()...)
	if OrderingErrors(all) != 1 {
		t.Fatalf("ordering errors = %d", OrderingErrors(all))
	}
	// Precisely synced clocks see no inversions.
	rb2 := NewRecorder(good, "b")
	rb2.Capture(sim.Time(110*sim.Nanosecond), 64)
	all2 := append(ra.Records(), rb2.Records()...)
	if OrderingErrors(all2) != 0 {
		t.Fatal("false inversion")
	}
}

func TestOrderingErrorRateFallsWithPrecision(t *testing.T) {
	// Events 50 ns apart; compare 1 µs sync precision to 10 ns precision.
	run := func(precision sim.Duration) int {
		rng := rand.New(rand.NewSource(9))
		var recs []Record
		for i := 0; i < 500; i++ {
			c := NewClock(0, 0)
			c.Sync(0, precision, rng)
			r := NewRecorder(c, "tap")
			r.Capture(sim.Time(i)*sim.Time(50*sim.Nanosecond), 64)
			recs = append(recs, r.Records()...)
		}
		return OrderingErrors(recs)
	}
	coarse, fine := run(sim.Microsecond), run(10*sim.Nanosecond)
	if coarse <= fine {
		t.Fatalf("coarse sync (%d inversions) should misorder more than fine (%d)", coarse, fine)
	}
	if fine > 60 {
		t.Fatalf("fine sync inversions = %d, want few", fine)
	}
}

func TestPeriodicSyncBoundsDrift(t *testing.T) {
	// A PTP-style discipline loop: a 500ppb clock synced every 100ms to
	// ±50ns keeps worst-case error bounded by precision + drift-per-period
	// (50ns + 0.5ppb/ms×100ms = 100ns); without syncing, error grows
	// unboundedly.
	sched := sim.NewScheduler(11)
	c := NewClock(20*sim.Microsecond, 500)
	rng := rand.New(rand.NewSource(11))
	period := 100 * sim.Millisecond
	sched.Every(0, period, func() {
		c.Sync(sched.Now(), 50*sim.Nanosecond, rng)
	})
	var worst sim.Duration
	sched.Every(sim.Time(sim.Millisecond), sim.Millisecond, func() {
		e := c.Error(sched.Now())
		if e < 0 {
			e = -e
		}
		if e > worst {
			worst = e
		}
	})
	sched.RunUntil(sim.Time(2 * sim.Second))
	bound := 50*sim.Nanosecond + sim.Duration(float64(period)*500/1e9)
	if worst > bound {
		t.Fatalf("worst error %v exceeds bound %v", worst, bound)
	}
	// The unsynced clock would be 20µs+ off the whole time.
	free := NewClock(20*sim.Microsecond, 500)
	if e := free.Error(sim.Time(2 * sim.Second)); e < 20*sim.Microsecond {
		t.Fatalf("free-running error = %v", e)
	}
}

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
		n1.SendBytes(pkt.AppendUDPFrame(nil, n1.Addr(1), n2.Addr(2), 7, payload))
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
