package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tradenet/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n * int64(sim.Microsecond)) }

func TestTelescopingSpans(t *testing.T) {
	r := NewRecorder(1, 16)
	c := r.Start(us(10))
	c.Record("nic", CauseSerialization, us(11))
	c.Record("wire", CausePropagation, us(12))
	c.Record("sw", CauseSwitching, us(15))
	c.Record("host", CauseSoftware, us(20))
	c.Finish(EndAccepted)

	if got, want := c.Duration(), us(20).Sub(us(10)); got != want {
		t.Fatalf("Duration() = %v, want %v", got, want)
	}
	var sum sim.Duration
	for _, v := range c.ByCause() {
		sum += v
	}
	if sum != c.Duration() {
		t.Fatalf("ByCause sums to %v, Duration is %v — telescoping invariant broken", sum, c.Duration())
	}
	spans := c.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("span %d starts at %v, previous ends at %v — gap", i, spans[i].Start, spans[i-1].End)
		}
	}
	if c.Terminal() != EndAccepted {
		t.Fatalf("Terminal() = %v, want accepted", c.Terminal())
	}
}

func TestRecordIgnoresRewindsAndZeroSpans(t *testing.T) {
	r := NewRecorder(1, 4)
	c := r.Start(us(5))
	c.Record("a", CauseSoftware, us(5)) // zero-length: skipped
	c.Record("b", CauseSoftware, us(4)) // rewind: ignored
	if len(c.Spans()) != 0 {
		t.Fatalf("got %d spans, want 0", len(c.Spans()))
	}
	c.Record("c", CauseSoftware, us(6))
	if len(c.Spans()) != 1 || c.Duration() != us(6).Sub(us(5)) {
		t.Fatalf("spans=%d dur=%v after valid record", len(c.Spans()), c.Duration())
	}

	// Nil context: every method is a no-op, not a panic.
	var nilCtx *Ctx
	nilCtx.Record("x", CauseSoftware, us(9))
	nilCtx.Finish(EndConsumed)
}

func TestSamplingStride(t *testing.T) {
	r := NewRecorder(3, 100)
	var started int
	for i := 0; i < 9; i++ {
		if c := r.Start(us(int64(i))); c != nil {
			started++
			c.Finish(EndConsumed)
		}
	}
	if started != 3 {
		t.Fatalf("every=3 over 9 starts traced %d, want 3", started)
	}
	if r.Created() != 3 {
		t.Fatalf("Created() = %d, want 3", r.Created())
	}
}

func TestCapCountsForks(t *testing.T) {
	r := NewRecorder(1, 3)
	c := r.Start(us(1))
	f1 := ForkOf(c)
	f2 := ForkOf(c)
	if c == nil || f1 == nil || f2 == nil {
		t.Fatal("expected 3 contexts within cap")
	}
	if ForkOf(c) != nil {
		t.Fatal("fork beyond cap should return nil")
	}
	if r.Start(us(2)) != nil {
		t.Fatal("start beyond cap should return nil")
	}
	if f1.Fork == f2.Fork || f1.Fork == 0 || f2.Fork == 0 {
		t.Fatalf("sibling forks got ordinals %d and %d — must be distinct and nonzero", f1.Fork, f2.Fork)
	}
	if f1.ID != c.ID || f2.ID != c.ID {
		t.Fatal("forks must keep the parent's trace ID")
	}
}

func TestForkInheritsSpansThenDiverges(t *testing.T) {
	r := NewRecorder(1, 8)
	c := r.Start(us(0))
	c.Record("shared", CauseSwitching, us(2))
	f := ForkOf(c)
	f.Record("branch", CausePropagation, us(5))
	c.Record("trunk", CauseSoftware, us(3))
	if len(c.Spans()) != 2 || len(f.Spans()) != 2 {
		t.Fatalf("spans: trunk %d, branch %d; want 2 and 2", len(c.Spans()), len(f.Spans()))
	}
	if f.Spans()[0].Where != "shared" || f.Spans()[1].Where != "branch" {
		t.Fatalf("fork spans = %+v", f.Spans())
	}
	if c.Duration() != us(3).Sub(us(0)) || f.Duration() != us(5).Sub(us(0)) {
		t.Fatalf("durations trunk=%v branch=%v", c.Duration(), f.Duration())
	}
}

func TestFinishIdempotentAndDoneOrder(t *testing.T) {
	r := NewRecorder(1, 8)
	a := r.Start(us(1))
	b := r.Start(us(2))
	b.Finish(EndDropped)
	a.Finish(EndAccepted)
	a.Finish(EndConsumed) // second finish: ignored
	done := r.Done()
	if len(done) != 2 {
		t.Fatalf("Done() has %d traces, want 2", len(done))
	}
	if done[0] != b || done[1] != a {
		t.Fatal("Done() must preserve finish order")
	}
	if a.Terminal() != EndAccepted {
		t.Fatalf("second Finish overwrote terminal: %v", a.Terminal())
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Start(us(1)) != nil {
		t.Fatal("nil recorder must not start traces")
	}
	if r.Created() != 0 || r.Done() != nil {
		t.Fatal("nil recorder accessors must return zero values")
	}
}

func TestWriteChromeDeterministicAndParsable(t *testing.T) {
	build := func() []*Ctx {
		r := NewRecorder(1, 8)
		c := r.Start(us(0))
		c.Record("EXCH-md0", CauseSerialization, sim.Time(1500*sim.Nanosecond))
		c.Record("leaf0", CauseSwitching, us(2))
		f := ForkOf(c)
		f.Record("strat1", CauseSoftware, us(4))
		f.Finish(EndConsumed)
		c.Record("strat0", CauseSoftware, us(3))
		c.Finish(EndAccepted)
		return r.Done()
	}

	var first, second bytes.Buffer
	if err := WriteChrome(&first, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&second, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two identical trace sets rendered different bytes")
	}

	var events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  uint64  `json:"tid"`
		Args struct {
			Trace uint64 `json:"trace"`
			Fork  int    `json:"fork"`
			End   string `json:"end"`
		} `json:"args"`
	}
	if err := json.Unmarshal(first.Bytes(), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, first.String())
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6 (fork: 2 inherited + 1 own; trunk: 3)", len(events))
	}
	for _, e := range events {
		if e.Ph != "X" {
			t.Fatalf("event phase %q, want X", e.Ph)
		}
	}
	// Sub-µs precision must survive as an exact decimal fraction.
	if !strings.Contains(first.String(), `"dur":1.5`) {
		t.Fatalf("1.5 µs span not rendered exactly:\n%s", first.String())
	}
	// The fork finished first, so events 0–2 are its row and 3–5 the
	// trunk's; the two rows must not overlap.
	if events[0].Tid == events[3].Tid {
		t.Fatal("fork shares tid with trunk — rows would overlap")
	}
}
