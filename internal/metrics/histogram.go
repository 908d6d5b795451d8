// Package metrics provides the measurement primitives used by every
// experiment: latency histograms with percentile queries, simple counters,
// and fixed-width windowed time series (the aggregation behind the paper's
// Figure 2(b) 1-second windows and Figure 2(c) 100-microsecond windows).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

const (
	subBucketBits  = 5 // 32 linear sub-buckets per octave
	subBuckets     = 1 << subBucketBits
	exactThreshold = 4096 // keep raw samples up to this many for exact stats

	// numBuckets is the full index range of bucketIndex over non-negative
	// int64: 32 unit buckets for [0,32), then 32 sub-buckets for each of the
	// 58 octaves [2^5,2^6) … [2^62,2^63).
	numBuckets = subBuckets + (62-subBucketBits+1)*subBuckets // 1888
)

// Histogram records int64 samples (typically picosecond latencies or byte
// counts) with exact min/max/mean and quantiles computed from log-linear
// buckets, in the style of HDR histograms: each power-of-two range is split
// into 32 linear sub-buckets, giving ~3% relative error on quantiles across
// the full int64 range with a small fixed footprint.
//
// Buckets are a dense fixed-size array (no map, no hashing on the record
// path), and quantile queries run off a cached cumulative distribution that
// is rebuilt at most once per batch of observations — so neither Observe nor
// Quantile allocates in steady state.
type Histogram struct {
	count int64
	sum   int64
	min   int64
	max   int64

	counts [numBuckets]int64

	// exact retains raw samples while the histogram is small, for exact
	// quantiles. Once the count passes exactThreshold the histogram degrades
	// to bucketed quantiles; exactOver records that transition (the backing
	// array is kept for Reset-without-realloc).
	exact     []int64
	exactOver bool

	// Quantile caches, invalidated by Observe/Merge/Reset.
	cdf         []int64 // cdf[i] = sum of counts[0..i]; len numBuckets when valid
	cdfValid    bool
	sortedExact []int64
	sortValid   bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, max: math.MinInt64}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// v lies in the octave [2^hi, 2^(hi+1)), split into 32 linear
	// sub-buckets of width 2^(hi-5).
	hi := bits.Len64(uint64(v)) - 1
	shift := hi - subBucketBits
	sub := int(v>>uint(shift)) & (subBuckets - 1)
	octave := hi - subBucketBits
	return subBuckets + octave*subBuckets + sub
}

func bucketLow(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	idx -= subBuckets
	octave := idx / subBuckets
	sub := idx % subBuckets
	base := int64(1) << uint(octave+subBucketBits)
	width := int64(1) << uint(octave)
	return base + int64(sub)*width
}

func bucketMid(idx int) int64 {
	lo := bucketLow(idx)
	if idx < subBuckets {
		return lo
	}
	next := bucketLow(idx + 1)
	return lo + (next-lo)/2
}

// Observe records one sample. Negative samples are clamped to zero: they can
// only arise from clock-model skew and would otherwise corrupt quantiles.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	if !h.exactOver {
		h.exact = append(h.exact, v)
		if len(h.exact) > exactThreshold {
			h.exactOver = true // fall back to bucketed quantiles
			h.exact = h.exact[:0]
		}
	}
	h.cdfValid, h.sortValid = false, false
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the q-quantile (q in [0,1]). While the histogram holds at
// most 4096 samples the answer is exact; beyond that it is the midpoint of
// the log-linear bucket containing the quantile (≤ ~3% relative error).
// Queries are O(buckets) to refresh the cached CDF after new observations
// and O(log buckets) thereafter; no per-query sorting or allocation.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	if !h.exactOver {
		if !h.sortValid {
			h.sortedExact = append(h.sortedExact[:0], h.exact...)
			slices.Sort(h.sortedExact)
			h.sortValid = true
		}
		return h.sortedExact[rank]
	}
	if !h.cdfValid {
		if h.cdf == nil {
			h.cdf = make([]int64, numBuckets)
		}
		var run int64
		for i, c := range h.counts {
			run += c
			h.cdf[i] = run
		}
		h.cdfValid = true
	}
	// First bucket whose cumulative count exceeds rank.
	lo, hi := 0, numBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if h.cdf[mid] > rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	mid := bucketMid(lo)
	if mid < h.min {
		mid = h.min
	}
	if mid > h.max {
		mid = h.max
	}
	return mid
}

// Median is Quantile(0.5).
func (h *Histogram) Median() int64 { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// String summarizes the distribution on one line.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d min=%d p50=%d mean=%.1f p99=%d max=%d",
		h.count, h.Min(), h.Median(), h.Mean(), h.P99(), h.Max())
}

// Summary holds a snapshot of a distribution's headline statistics.
type Summary struct {
	Count       int64
	Min, Max    int64
	Mean        float64
	Median, P90 int64
	P99, P999   int64
}

// Summarize captures the headline statistics of the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Min:    h.Min(),
		Max:    h.Max(),
		Mean:   h.Mean(),
		Median: h.Median(),
		P90:    h.Quantile(0.90),
		P99:    h.P99(),
		P999:   h.Quantile(0.999),
	}
}

// Table renders rows of labeled summaries as a fixed-width text table, the
// output format used by the experiment harness.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, hcol := range header {
		widths[i] = len(hcol)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
