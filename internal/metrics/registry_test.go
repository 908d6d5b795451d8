package metrics

import (
	"strings"
	"testing"
)

func TestRegistryDumpIsSortedAndLazy(t *testing.T) {
	r := NewRegistry()
	var backing int64 = 1
	r.RegisterInt("z.last", func() int64 { return 26 })
	r.RegisterInt("a.first", func() int64 { return backing })
	var c int64
	r.RegisterInt("m.counter", func() int64 { return c })
	h := r.Histogram("m.hist")

	backing = 41 // reads are lazy: the dump must see the current value
	c += 3
	h.Observe(5)
	h.Observe(7)

	dump := r.String()
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4:\n%s", len(lines), dump)
	}
	wantOrder := []string{"a.first", "m.counter", "m.hist", "z.last"}
	for i, name := range wantOrder {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Fatalf("line %d = %q, want prefix %q (dump must sort by name)", i, lines[i], name)
		}
	}
	if lines[0] != "a.first 41" {
		t.Errorf("lazy int read: %q, want \"a.first 41\"", lines[0])
	}
	if lines[1] != "m.counter 3" {
		t.Errorf("counter line: %q", lines[1])
	}
	if !strings.Contains(lines[2], "count=2") {
		t.Errorf("histogram line: %q, want count=2", lines[2])
	}

	if r.String() != dump {
		t.Error("two dumps of unchanged registry differ")
	}
	names := r.Names()
	for i, n := range wantOrder {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
	if got, ok := r.Int("a.first"); !ok || got != 41 {
		t.Errorf("Int(a.first) = %d, %v; want 41, true", got, ok)
	}
	if _, ok := r.Int("no.such"); ok {
		t.Error("Int on an unregistered name reported ok")
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", label)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.RegisterInt("dup", func() int64 { return 0 })
	mustPanic("duplicate int", func() { r.RegisterInt("dup", func() int64 { return 0 }) })
	mustPanic("duplicate across kinds", func() { r.Histogram("dup") })
	mustPanic("empty name", func() { r.RegisterInt("", func() int64 { return 0 }) })
	mustPanic("whitespace name", func() { r.RegisterInt("a b", func() int64 { return 0 }) })
	mustPanic("nil reader", func() { r.RegisterInt("nilread", nil) })
}

func TestRegistryHistogramHandleIsLive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	if !strings.Contains(r.String(), "lat count=0") {
		t.Fatalf("empty histogram dump: %q", r.String())
	}
	h.Observe(9) // observations through the returned handle reach the dump
	if !strings.Contains(r.String(), "lat count=1") {
		t.Fatalf("observation missing from dump: %q", r.String())
	}
}
