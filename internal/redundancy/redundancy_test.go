package redundancy

import (
	"bytes"
	"fmt"
	"testing"

	"tradenet/internal/sim"
)

// harness wires a Sender straight into a Receiver through a scriptable
// lossy pipe: drop(i) decides the fate of the i-th emitted wire frame
// (0-based, in emit order).
type harness struct {
	s         *Sender
	r         *Receiver
	emitted   int
	delivered [][]byte
	recovered []bool
}

func newHarness(t *testing.T, drop func(i int) bool) *harness {
	t.Helper()
	h := &harness{}
	h.s = NewSender(nil, DefaultSenderConfig())
	h.r = NewReceiver(DefaultReceiverConfig())
	h.s.Emit = func(b []byte) {
		i := h.emitted
		h.emitted++
		if drop != nil && drop(i) {
			return
		}
		h.r.Consume(b)
	}
	h.r.Deliver = func(p []byte, rec bool) {
		h.delivered = append(h.delivered, append([]byte(nil), p...))
		h.recovered = append(h.recovered, rec)
	}
	return h
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("msg-%03d-%s", i, string(make([]byte, i%7))))
	}
	return out
}

// checkPrefix asserts delivered payloads are a subsequence-correct,
// uncorrupted run: each delivered payload must byte-match the original at
// its position in delivery order (originals minus declared losses).
func (h *harness) checkDeliveredExactly(t *testing.T, want [][]byte) {
	t.Helper()
	if len(h.delivered) != len(want) {
		t.Fatalf("delivered %d payloads, want %d", len(h.delivered), len(want))
	}
	for i := range want {
		if !bytes.Equal(h.delivered[i], want[i]) {
			t.Fatalf("payload %d corrupted: got %q want %q", i, h.delivered[i], want[i])
		}
	}
}

func TestWireFormatRoundTrip(t *testing.T) {
	var f WireFrame
	b := AppendDataFrame(nil, 42, []byte("hello"))
	if err := ParseFrame(b, &f); err != nil || f.Parity || f.Seq != 42 || string(f.Payload) != "hello" {
		t.Fatalf("data frame round trip: %+v err=%v", f, err)
	}
	b = AppendParityFrame(nil, 100, 4, 0x1234, []byte{0xaa, 0xbb})
	if err := ParseFrame(b, &f); err != nil || !f.Parity || f.Seq != 100 || f.N != 4 || f.LenXor != 0x1234 || !bytes.Equal(f.Payload, []byte{0xaa, 0xbb}) {
		t.Fatalf("parity frame round trip: %+v err=%v", f, err)
	}
	if err := ParseFrame([]byte{kindData, 0}, &f); err != ErrShortFrame {
		t.Fatalf("short frame: %v", err)
	}
	if err := ParseFrame([]byte{0x7f, 0, 0, 0, 0}, &f); err != ErrBadKind {
		t.Fatalf("bad kind: %v", err)
	}
}

func TestReplayOnlyDeclaresImmediately(t *testing.T) {
	// Frames 0..9, drop emit #3. ReplayOnly holds nothing: the moment
	// frame 4 arrives the hole is declared and everything after flows.
	h := newHarness(t, func(i int) bool { return i == 3 })
	msgs := payloads(10)
	for _, m := range msgs {
		h.s.Send(m)
	}
	want := append(append([][]byte{}, msgs[:3]...), msgs[4:]...)
	h.checkDeliveredExactly(t, want)
	if h.r.Stats.LostDeclared != 1 {
		t.Fatalf("LostDeclared = %d, want 1", h.r.Stats.LostDeclared)
	}
}

func TestDuplicateSurvivesSingleCopyLoss(t *testing.T) {
	// Every frame sent twice back to back; drop every even emit (the
	// first copy of every frame). The second copies carry the stream.
	h := newHarness(t, func(i int) bool { return i%2 == 0 })
	h.s.Apply(Duplicate)
	h.r.Apply(Duplicate)
	msgs := payloads(20)
	for _, m := range msgs {
		h.s.Send(m)
	}
	h.checkDeliveredExactly(t, msgs)
	if h.r.Stats.LostDeclared != 0 {
		t.Fatalf("LostDeclared = %d, want 0", h.r.Stats.LostDeclared)
	}
	if h.s.Stats.DupFrames != 20 {
		t.Fatalf("DupFrames = %d, want 20", h.s.Stats.DupFrames)
	}
}

func TestDuplicateDedupsBothCopies(t *testing.T) {
	h := newHarness(t, nil)
	h.s.Apply(Duplicate)
	h.r.Apply(Duplicate)
	msgs := payloads(10)
	for _, m := range msgs {
		h.s.Send(m)
	}
	h.checkDeliveredExactly(t, msgs)
	if h.r.Stats.Duplicates != 10 {
		t.Fatalf("Duplicates = %d, want 10", h.r.Stats.Duplicates)
	}
}

func TestDuplicateCrossPath(t *testing.T) {
	// Emit2 set: second copies take the alternate path; primary drops
	// everything, alternate is clean.
	h := newHarness(t, func(i int) bool { return true })
	h.s.Emit2 = func(b []byte) { h.r.Consume(b) }
	h.s.Apply(Duplicate)
	h.r.Apply(Duplicate)
	msgs := payloads(10)
	for _, m := range msgs {
		h.s.Send(m)
	}
	h.checkDeliveredExactly(t, msgs)
}

func TestDuplicateStaggered(t *testing.T) {
	sched := sim.NewScheduler(1)
	s := NewSender(sched, SenderConfig{K: 4, Stagger: 5 * sim.Microsecond})
	r := NewReceiver(DefaultReceiverConfig())
	var got [][]byte
	r.Deliver = func(p []byte, _ bool) { got = append(got, append([]byte(nil), p...)) }
	emit := 0
	s.Emit = func(b []byte) {
		i := emit
		emit++
		// The send loop runs before sched.Run, so emits 0..7 are the
		// first copies and 8..15 the staggered ones: lose every first
		// copy, let the staggered copies carry the stream.
		if i < 8 {
			return
		}
		r.Consume(b)
	}
	s.Apply(Duplicate)
	r.Apply(Duplicate)
	msgs := payloads(8)
	for _, m := range msgs {
		s.Send(m)
	}
	sched.Run()
	if len(got) != len(msgs) {
		t.Fatalf("delivered %d, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("payload %d corrupted", i)
		}
	}
}

func TestParityReconstructsEachPosition(t *testing.T) {
	// K=4: emits per group are d d d d P (5 wire frames). Drop the data
	// frame at each group position in turn; every loss reconstructs with
	// no declared losses and no replay.
	for pos := 0; pos < 4; pos++ {
		h := newHarness(t, func(i int) bool { return i == pos })
		h.s.Apply(ParityFEC)
		h.r.Apply(ParityFEC)
		msgs := payloads(12)
		for _, m := range msgs {
			h.s.Send(m)
		}
		h.checkDeliveredExactly(t, msgs)
		if h.r.Stats.Reconstructed != 1 {
			t.Fatalf("pos %d: Reconstructed = %d, want 1", pos, h.r.Stats.Reconstructed)
		}
		if h.r.Stats.LostDeclared != 0 {
			t.Fatalf("pos %d: LostDeclared = %d, want 0", pos, h.r.Stats.LostDeclared)
		}
	}
}

func TestParityLostParityFrame(t *testing.T) {
	// Losing the parity frame itself (emit #4) costs nothing: all data
	// arrived, nothing to reconstruct.
	h := newHarness(t, func(i int) bool { return i == 4 })
	h.s.Apply(ParityFEC)
	h.r.Apply(ParityFEC)
	msgs := payloads(12)
	for _, m := range msgs {
		h.s.Send(m)
	}
	h.checkDeliveredExactly(t, msgs)
	if h.r.Stats.LostDeclared != 0 || h.r.Stats.Reconstructed != 0 {
		t.Fatalf("stats: %+v", h.r.Stats)
	}
}

func TestParityTwoLossesFallThroughToReplay(t *testing.T) {
	// Two losses in the first group (emits 0 and 2) exhaust the XOR
	// code: the parity frame must declare both immediately — surfacing
	// the gap for replay — and must never emit a corrupt frame.
	h := newHarness(t, func(i int) bool { return i == 0 || i == 2 })
	h.s.Apply(ParityFEC)
	h.r.Apply(ParityFEC)
	msgs := payloads(12)
	for _, m := range msgs {
		h.s.Send(m)
	}
	want := [][]byte{msgs[1], msgs[3]}
	want = append(want, msgs[4:]...)
	h.checkDeliveredExactly(t, want)
	if h.r.Stats.LostDeclared != 2 {
		t.Fatalf("LostDeclared = %d, want 2", h.r.Stats.LostDeclared)
	}
	if h.r.Stats.ParityUnusable != 1 {
		t.Fatalf("ParityUnusable = %d, want 1", h.r.Stats.ParityUnusable)
	}
	if h.r.Stats.Reconstructed != 0 {
		t.Fatalf("Reconstructed = %d, want 0", h.r.Stats.Reconstructed)
	}
}

func TestParityReconstructsAfterDelivery(t *testing.T) {
	// Loss in the *second* group while the first group was delivered
	// normally: retained slots from group 1 must not confuse group 2's
	// reconstruction.
	h := newHarness(t, func(i int) bool { return i == 6 }) // d d d d P d [d] d d P
	h.s.Apply(ParityFEC)
	h.r.Apply(ParityFEC)
	msgs := payloads(8)
	for _, m := range msgs {
		h.s.Send(m)
	}
	h.checkDeliveredExactly(t, msgs)
	if h.r.Stats.Reconstructed != 1 {
		t.Fatalf("Reconstructed = %d, want 1", h.r.Stats.Reconstructed)
	}
}

func TestSenderFlushesPartialGroupOnPolicyExit(t *testing.T) {
	// Two frames into a group of 4, the policy steps down. The partial
	// group's parity must flush so the in-flight frames stay covered:
	// drop frame #1 and the flushed parity still reconstructs it.
	h := newHarness(t, func(i int) bool { return i == 1 })
	h.s.Apply(ParityFEC)
	h.r.Apply(ParityFEC)
	msgs := payloads(6)
	h.s.Send(msgs[0])
	h.s.Send(msgs[1])
	h.s.Apply(ReplayOnly) // flushes parity over {0,1} as emit #2
	h.r.Apply(ReplayOnly)
	for _, m := range msgs[2:] {
		h.s.Send(m)
	}
	h.checkDeliveredExactly(t, msgs)
	if h.r.Stats.Reconstructed != 1 {
		t.Fatalf("Reconstructed = %d, want 1", h.r.Stats.Reconstructed)
	}
}

func TestReceiverRingWrapDeclares(t *testing.T) {
	// A frame arriving a full ring ahead of the cursor forces the old
	// span to resolve rather than silently corrupting slots.
	r := NewReceiver(ReceiverConfig{K: 4, WindowPow2: 4, HoldDup: 8}) // 16 slots
	var n int
	r.Deliver = func([]byte, bool) { n++ }
	r.Apply(Duplicate) // hold window 8
	var buf []byte
	buf = AppendDataFrame(buf[:0], 2, []byte("a")) // hole at 1
	r.Consume(buf)
	buf = AppendDataFrame(buf[:0], 40, []byte("b")) // 38 ahead: wraps
	r.Consume(buf)
	if r.Stats.LostDeclared == 0 {
		t.Fatal("ring wrap did not declare the stranded span")
	}
	if n != 1 { // frame 2 was delivered during the declare; 40 held
		t.Fatalf("delivered %d, want 1", n)
	}
}

// scriptSource is a hand-cranked cumulative counter pair.
type scriptSource struct{ tx, lost uint64 }

func (s *scriptSource) Sample() LossSample { return LossSample{Tx: s.tx, Lost: s.lost} }

type recAdapter struct{ applied []Policy }

func (r *recAdapter) Apply(p Policy) { r.applied = append(r.applied, p) }

func TestControllerHysteresis(t *testing.T) {
	sched := sim.NewScheduler(7)
	src := &scriptSource{}
	rec := &recAdapter{}
	cfg := ControllerConfig{
		Window: 100 * sim.Microsecond, MinFrames: 8,
		EnterFEC: 0.01, EnterDup: 0.12, EnterAfter: 2, ExitAfter: 3,
	}
	c := NewController(sched, cfg, src, rec)
	// Script: each entry is the (tx, lost) delta landed before that
	// window's sampling tick.
	script := []struct{ tx, lost uint64 }{
		{100, 5},  // w1: 5% -> desire FEC, streak 1
		{100, 5},  // w2: streak 2 -> switch to FEC
		{100, 30}, // w3: 30% -> desire Dup, streak 1
		{100, 30}, // w4: streak 2 -> switch to Duplicate
		{100, 0},  // w5: clean, down 1
		{100, 0},  // w6: down 2
		{2, 0},    // w7: too quiet -> skipped, streak frozen
		{100, 0},  // w8: down 3 -> step to FEC
		{100, 0},  // w9: down 1
		{100, 0},  // w10: down 2
		{100, 0},  // w11: down 3 -> step to ReplayOnly
	}
	for i, step := range script {
		tx, lost := step.tx, step.lost
		// Land the counters mid-window, before the sampling tick.
		sched.AtPrio(sim.Time(i)*sim.Time(cfg.Window)+sim.Time(cfg.Window)/2, sim.PrioDeliver, func() {
			src.tx += tx
			src.lost += lost
		})
	}
	c.Start()
	sched.RunUntil(sim.Time(len(script)) * sim.Time(cfg.Window))

	wantApplied := []Policy{ParityFEC, Duplicate, ParityFEC, ReplayOnly}
	if len(rec.applied) != len(wantApplied) {
		t.Fatalf("applied %v, want %v", rec.applied, wantApplied)
	}
	for i := range wantApplied {
		if rec.applied[i] != wantApplied[i] {
			t.Fatalf("applied %v, want %v", rec.applied, wantApplied)
		}
	}
	wantWindows := []uint64{2, 4, 8, 11}
	for i, d := range c.Decisions {
		if d.Window != wantWindows[i] {
			t.Fatalf("decision %d at window %d, want %d (%+v)", i, d.Window, wantWindows[i], c.Decisions)
		}
	}
	if c.WindowsSkipped != 1 {
		t.Fatalf("WindowsSkipped = %d, want 1", c.WindowsSkipped)
	}
	if c.Policy() != ReplayOnly {
		t.Fatalf("final policy %s, want replay-only", c.Policy())
	}
}

func TestControllerDeterministicDecisionLog(t *testing.T) {
	run := func() string {
		sched := sim.NewScheduler(3)
		src := &scriptSource{}
		s := NewSender(nil, DefaultSenderConfig())
		s.Emit = func([]byte) {}
		c := NewController(sched, DefaultControllerConfig(), src, s)
		for i := 0; i < 20; i++ {
			i := i
			sched.AtPrio(sim.Time(i)*sim.Time(250*sim.Microsecond), sim.PrioDeliver, func() {
				src.tx += 50
				if i > 4 && i < 15 {
					src.lost += 10
				}
			})
		}
		c.Start()
		sched.RunUntil(6 * sim.Time(sim.Millisecond))
		return c.LogString()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("decision log not reproducible:\n%s\nvs\n%s", a, b)
	}
	if a == "  (no policy switches)\n" {
		t.Fatal("script should have tripped at least one switch")
	}
}
