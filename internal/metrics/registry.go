package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Registry unifies the repo's scattered observability surfaces — ad-hoc
// uint64 stat fields, fabric counter aggregates, histograms — behind named
// hierarchical keys with one deterministic dump format. Names are dotted
// paths ("sched.fired.args2", "fabric.md.drops", "latency.design1.e2e");
// the convention is component.subcomponent.metric, so a sorted dump groups
// related metrics without the registry knowing the hierarchy.
//
// Integer metrics register a read function, not a value: sources keep
// mutating their own plain fields on the hot path (no indirection, no
// interface call per event) and the registry reads them once, at dump time.
// Registration order never matters — Dump sorts keys — so a registry dump
// is byte-stable across runs of a deterministic simulation.
type Registry struct {
	ints  map[string]func() int64
	hists map[string]*Histogram
	kinds map[string]Kind
}

// Kind classifies a registered metric for consumers that walk the registry
// structurally (the Sampler, manifest capture, cmd/tradestat) instead of
// re-parsing Dump's text output.
type Kind uint8

const (
	// KindInt is a read-at-dump-time integer: counters, *uint64 stat
	// fields, arbitrary derived reads. Deltas between samples are
	// meaningful for monotonic sources.
	KindInt Kind = iota
	// KindHistogram is a distribution summarized by quantiles.
	KindHistogram
)

// String names the kind as it appears in manifests.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ints:  make(map[string]func() int64),
		hists: make(map[string]*Histogram),
		kinds: make(map[string]Kind),
	}
}

// RegisterInt binds name to an integer read at dump time. Registering a name
// twice panics: silent last-wins would make dumps depend on wiring order.
func (r *Registry) RegisterInt(name string, read func() int64) {
	if read == nil {
		panic("metrics: RegisterInt with nil reader")
	}
	r.checkName(name)
	r.ints[name] = read
	r.kinds[name] = KindInt
}

// RegisterUint binds name to a *uint64 stat field — the dominant shape of
// existing device and application counters.
func (r *Registry) RegisterUint(name string, v *uint64) {
	if v == nil {
		panic("metrics: RegisterUint with nil field")
	}
	r.RegisterInt(name, func() int64 { return int64(*v) })
}

// RegisterHistogram binds name to a histogram, summarized at dump time.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if h == nil {
		panic("metrics: RegisterHistogram with nil histogram")
	}
	r.checkName(name)
	r.hists[name] = h
	r.kinds[name] = KindHistogram
}

// Histogram creates, registers, and returns a fresh histogram under name.
func (r *Registry) Histogram(name string) *Histogram {
	h := NewHistogram()
	r.RegisterHistogram(name, h)
	return h
}

func (r *Registry) checkName(name string) {
	if name == "" || strings.ContainsAny(name, " \t\n=") {
		panic(fmt.Sprintf("metrics: invalid registry name %q", name))
	}
	if _, ok := r.ints[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registry name %q", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registry name %q", name))
	}
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.ints)+len(r.hists))
	for k := range r.ints {
		out = append(out, k)
	}
	for k := range r.hists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Int reads the integer metric registered under name (false if absent).
func (r *Registry) Int(name string) (int64, bool) {
	read, ok := r.ints[name]
	if !ok {
		return 0, false
	}
	return read(), true
}

// Hist returns the histogram registered under name (false if absent).
func (r *Registry) Hist(name string) (*Histogram, bool) {
	h, ok := r.hists[name]
	return h, ok
}

// Each walks every registered metric in sorted name order — the structural
// complement to Dump, so samplers and exporters never re-parse text. The
// walk order is deterministic and matches Dump's line order exactly.
func (r *Registry) Each(fn func(name string, kind Kind)) {
	for _, name := range r.Names() {
		fn(name, r.kinds[name])
	}
}

// Dump writes every metric in sorted name order, one per line: integers as
// "name value", histograms as "name count=N min=… mean=… p50=… p99=… max=…"
// (empty histograms dump as count=0 only). The output is deterministic:
// byte-identical across runs with identical metric values.
func (r *Registry) Dump(w io.Writer) error {
	for _, name := range r.Names() {
		if read, ok := r.ints[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %d\n", name, read()); err != nil {
				return err
			}
			continue
		}
		h := r.hists[name]
		if h.Count() == 0 {
			if _, err := fmt.Fprintf(w, "%s count=0\n", name); err != nil {
				return err
			}
			continue
		}
		_, err := fmt.Fprintf(w, "%s count=%d min=%d mean=%.0f p50=%d p99=%d max=%d\n",
			name, h.Count(), h.Min(), h.Mean(), h.Median(), h.P99(), h.Max())
		if err != nil {
			return err
		}
	}
	return nil
}

// String returns the Dump output as a string.
func (r *Registry) String() string {
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		panic(err) // Builder never errors
	}
	return b.String()
}
