package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"reflect"
	"testing"
)

// protoEnc is just enough of a protobuf writer to synthesize a profile.
type protoEnc struct{ b []byte }

func (e *protoEnc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *protoEnc) uint(field int, v uint64) {
	e.varint(uint64(field)<<3 | 0)
	e.varint(v)
}

func (e *protoEnc) bytes(field int, b []byte) {
	e.varint(uint64(field)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func packed(vals ...uint64) []byte {
	var e protoEnc
	for _, v := range vals {
		e.varint(v)
	}
	return e.b
}

// synthProfile builds a gzip'd profile.proto. Each location may hold several
// functions (an inlined chain, innermost first); stacks list locations leaf
// first. Samples alternate between packed and unpacked location ids.
func synthProfile(t *testing.T, locations [][]string, stacks [][]uint64, counts []int64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var p protoEnc
	var st protoEnc // sample_type {type, unit}: skipped by the reader
	st.uint(1, intern("samples"))
	st.uint(2, intern("count"))
	p.bytes(1, st.b)
	fnID := uint64(0)
	for i, fns := range locations {
		var loc protoEnc
		loc.uint(1, uint64(i+1))
		loc.uint(3, 0x400000+uint64(i)) // address: ignored
		for _, name := range fns {
			fnID++
			var fn protoEnc
			fn.uint(1, fnID)
			fn.uint(2, intern(name))
			fn.uint(4, intern(name+".go"))
			p.bytes(5, fn.b)
			var line protoEnc
			line.uint(1, fnID)
			line.uint(2, 42)
			loc.bytes(4, line.b)
		}
		p.bytes(4, loc.b)
	}
	for i, stack := range stacks {
		var s protoEnc
		if i%2 == 0 {
			s.bytes(1, packed(stack...))
		} else {
			for _, id := range stack {
				s.uint(1, id)
			}
		}
		s.bytes(2, packed(uint64(counts[i]), uint64(counts[i])*10_000_000))
		p.bytes(2, s.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(12, 10_000_000) // period: a field the reader has no use for

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestParseAndClassifyProfile(t *testing.T) {
	locations := [][]string{
		{"runtime.memmove"}, // 1
		{"tradenet/internal/netsim.NewFrame", "tradenet/internal/netsim.(*Frame).Clone"}, // 2: NewFrame inlined into Clone
		{"tradenet/internal/device.fanOut"},                                              // 3
		{"tradenet/internal/sim.(*Scheduler).Run"},                                       // 4
		{"tradenet/internal/core.measure"},                                               // 5
		{"main.(*designJob).run"},                                                        // 6
		{"runtime.scanobject"},                                                           // 7
		{"runtime.gcDrain"},                                                              // 8
		{"runtime.gcBgMarkWorker"},                                                       // 9
		{"internal/runtime/maps.(*Map).getWithKey"},                                      // 10
		{"tradenet/internal/market.(*Book).Add"},                                         // 11
		{"tradenet/internal/topo.(*LeafSpine).Join"},                                     // 12
		{"main.(*codecJob).nextMsg"},                                                     // 13
		{"runtime.mallocgc"},                                                             // 14
	}
	stacks := [][]uint64{
		{1, 2, 3, 4, 5, 6}, // memmove under Frame.Clone: netsim's, and a mem sample
		{7, 8, 9},          // background mark worker
		{10, 11, 4, 5, 6},  // map access under Book.Add: market's
		{12, 5, 6},         // an internal package that is not a declared layer
		{13, 6},            // harness only
		{14, 11, 4, 5, 6},  // allocation under Book.Add
		{4, 5, 6},          // the scheduler itself
	}
	counts := []int64{40, 10, 20, 5, 5, 10, 10}
	samples, err := parseProfile(synthProfile(t, locations, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("%d samples, want %d", len(samples), len(stacks))
	}
	wantStack := []string{
		"runtime.memmove", "tradenet/internal/netsim.NewFrame", "tradenet/internal/netsim.(*Frame).Clone",
		"tradenet/internal/device.fanOut", "tradenet/internal/sim.(*Scheduler).Run", "tradenet/internal/core.measure", "main.(*designJob).run",
	}
	if !reflect.DeepEqual(samples[0].Stack, wantStack) || samples[0].Count != 40 {
		t.Errorf("sample 0 = %+v", samples[0])
	}

	wantLayer := []string{"netsim", "runtime", "market", "topo", "bench", "market", "sim"}
	wantOverlay := []string{"mem", "gc", "maps", "", "", "alloc", ""}
	for i, s := range samples {
		if got := layerOf(s.Stack); got != wantLayer[i] {
			t.Errorf("sample %d: layer %q, want %q", i, got, wantLayer[i])
		}
		if got := overlayOf(s.Stack); got != wantOverlay[i] {
			t.Errorf("sample %d: overlay %q, want %q", i, got, wantOverlay[i])
		}
	}

	table := cpuTable(samples)
	want := map[string]float64{
		"netsim.cpu_pct": 40, "market.cpu_pct": 30, "sim.cpu_pct": 10, "runtime.bg_cpu_pct": 10, "other.cpu_pct": 10,
		"runtime.mem_cpu_pct": 40, "runtime.gc_cpu_pct": 10, "runtime.maps_cpu_pct": 20, "runtime.alloc_cpu_pct": 10,
	}
	for k, v := range table {
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	var sum float64
	for _, k := range shareNames() {
		sum += table[k]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer shares sum to %v", sum)
	}
	if len(table) != len(cpuLayers)+2+len(cpuOverlays) {
		t.Errorf("table has %d rows", len(table))
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // a sample claiming 127 bytes, holding one
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("a truncated record parsed")
	}
	if got := cpuTable(nil); got["other.cpu_pct"] != 0 || len(got) == 0 {
		t.Errorf("empty profile: %v", got)
	}
}
