package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"wormnet/internal/snap"
)

// Histogram accumulates int64 samples (latencies, queue depths, blocked
// durations) in logarithmic buckets, supporting approximate quantiles with
// bounded relative error and O(1) insertion. Bucket 0 holds samples <= 0;
// bucket b >= 1 covers roughly [growth^(b-1), growth^b), with the exact
// integer boundaries defined by bucket and mirrored by lowerBound.
type Histogram struct {
	growth  float64
	logG    float64
	counts  []int64
	total   int64
	sum     int64
	min     int64
	max     int64
	samples bool
}

// NewHistogram returns a histogram with the given bucket growth factor
// (e.g. 1.25 for ~12% relative quantile error). It panics if growth <= 1.
func NewHistogram(growth float64) *Histogram {
	if growth <= 1 {
		panic("stats: histogram growth must be > 1")
	}
	return &Histogram{growth: growth, logG: math.Log(growth)}
}

// bucket returns the bucket index for value v (>= 0).
func (h *Histogram) bucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return int(math.Log(float64(v))/h.logG) + 1
}

// lowerBound returns the smallest value that bucket maps into bucket b (or
// into a later bucket, for indices no integer value maps to exactly). It is
// defined in terms of bucket itself, so for every sample v the invariant
// lowerBound(bucket(v)) <= v < lowerBound(bucket(v)+1) holds even where
// math.Log and math.Exp round to opposite sides of an exact power of the
// growth factor.
func (h *Histogram) lowerBound(b int) int64 {
	if b <= 0 {
		return 0
	}
	x := math.Exp(float64(b-1) * h.logG)
	if x >= math.MaxInt64 {
		return math.MaxInt64
	}
	v := int64(x)
	if v < 1 {
		v = 1
	}
	// The closed form can be off by a few ulps around exact powers of the
	// growth factor; bucket is monotone in v, so nudge v to the true
	// boundary.
	for v > 1 && h.bucket(v-1) >= b {
		v--
	}
	for h.bucket(v) < b {
		v++
	}
	return v
}

// Add records one sample. Negative samples are clamped to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	b := h.bucket(v)
	for len(h.counts) <= b {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
	h.total++
	h.sum += v
	if !h.samples || v < h.min {
		h.min = v
	}
	if !h.samples || v > h.max {
		h.max = v
	}
	h.samples = true
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the exact sample mean (sums are tracked exactly).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min and Max return the exact extremes.
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1), exact
// to within one bucket.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(q * float64(h.total))
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum > target {
			// Midpoint of the bucket, clamped to the observed extremes.
			lo, hi := h.lowerBound(b), h.lowerBound(b+1)
			mid := (lo + hi) / 2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// Merge folds other into h. Both histograms must share the growth factor.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	if other.growth != h.growth {
		panic("stats: merging histograms with different growth factors")
	}
	for len(h.counts) < len(other.counts) {
		h.counts = append(h.counts, 0)
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	if !h.samples || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
	h.samples = true
}

// histogramJSON is the serialized form of a Histogram, used by the sweep
// harness to journal per-run distributions so a resumed sweep aggregates
// exactly what a fresh one would.
type histogramJSON struct {
	Growth float64 `json:"growth"`
	Counts []int64 `json:"counts,omitempty"`
	Total  int64   `json:"total"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// trimmedCounts returns the bucket counts without trailing empty buckets, so
// that equivalent histograms serialize identically regardless of transient
// bucket-slice growth.
func (h *Histogram) trimmedCounts() []int64 {
	counts := h.counts
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return counts
}

// MarshalJSON encodes the histogram, including exact sum and extremes.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		Growth: h.growth,
		Counts: h.trimmedCounts(),
		Total:  h.total,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	})
}

// UnmarshalJSON restores a histogram written by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Growth <= 1 {
		return fmt.Errorf("stats: histogram growth %v out of range", j.Growth)
	}
	var total int64
	for _, c := range j.Counts {
		if c < 0 {
			return fmt.Errorf("stats: negative bucket count %d", c)
		}
		total += c
	}
	if total != j.Total {
		return fmt.Errorf("stats: histogram total %d does not match bucket sum %d", j.Total, total)
	}
	*h = Histogram{
		growth:  j.Growth,
		logG:    math.Log(j.Growth),
		counts:  j.Counts,
		total:   j.Total,
		sum:     j.Sum,
		min:     j.Min,
		max:     j.Max,
		samples: j.Total > 0,
	}
	return nil
}

// AppendSnapshot appends the histogram's samples to dst for
// sim.Engine.Snapshot: the trimmed bucket counts, the exact sum and the
// extremes. The growth factor
// belongs to whoever built the histogram and is not written.
func (h *Histogram) AppendSnapshot(dst []byte) []byte {
	counts := h.trimmedCounts()
	dst = snap.U32(dst, uint32(len(counts)))
	dst = snap.I64s(dst, counts)
	return snap.I64s(dst, []int64{h.sum, h.min, h.max})
}

// RestoreSnapshot replaces the samples with what AppendSnapshot wrote, keeping
// the growth factor and reusing the bucket slice. Decoding errors stay in r:
// more buckets than an int64 sample can reach, a negative count or negative
// extremes are rejected.
func (h *Histogram) RestoreSnapshot(r *snap.Reader) {
	n := r.Len(8)
	// (The logarithm is only worth taking for a count this histogram has not
	// held before.)
	if n > cap(h.counts) && n > h.bucket(math.MaxInt64)+1 {
		r.Failf("stats: histogram snapshot has %d buckets", n)
		return
	}
	h.counts = h.counts[:0]
	h.total = 0
	for i := 0; i < n; i++ {
		c := r.I64()
		if c < 0 {
			r.Failf("stats: histogram snapshot has negative bucket count %d", c)
			return
		}
		h.counts = append(h.counts, c)
		h.total += c
	}
	var tail [3]int64
	r.I64s(tail[:])
	h.sum, h.min, h.max = tail[0], tail[1], tail[2]
	h.samples = h.total > 0
	if h.min < 0 || h.max < h.min || (!h.samples && (h.sum != 0 || h.max != 0)) {
		r.Failf("stats: histogram snapshot has %d samples with sum %d, min %d, max %d", h.total, h.sum, h.min, h.max)
	}
}

// CopyFrom makes h an exact copy of src, samples and growth factor, reusing
// h's bucket slice (sim.Engine's restore copy keeps its histograms this way).
func (h *Histogram) CopyFrom(src *Histogram) {
	counts := append(h.counts[:0], src.counts...)
	*h = *src
	h.counts = counts
}

// String renders a compact summary with common percentiles.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram(empty)"
	}
	return fmt.Sprintf("n=%d mean=%.1f min=%d p50=%d p90=%d p99=%d max=%d",
		h.total, h.Mean(), h.min, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.max)
}

// Bars renders an ASCII bar chart of the distribution with up to width
// characters per bar, skipping empty leading/trailing buckets.
func (h *Histogram) Bars(width int) string {
	if h.total == 0 || width < 1 {
		return ""
	}
	first, last := -1, -1
	var peak int64
	for b, c := range h.counts {
		if c > 0 {
			if first == -1 {
				first = b
			}
			last = b
			if c > peak {
				peak = c
			}
		}
	}
	var sb strings.Builder
	for b := first; b <= last; b++ {
		n := int(float64(h.counts[b]) / float64(peak) * float64(width))
		if h.counts[b] > 0 && n == 0 {
			n = 1
		}
		fmt.Fprintf(&sb, "%8d.. %s %d\n", h.lowerBound(b), strings.Repeat("#", n), h.counts[b])
	}
	return sb.String()
}
