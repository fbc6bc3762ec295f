// Package stats provides the small statistics toolkit used by the
// simulator: streaming latency accumulators, bucketed histograms, and
// fixed-width table rendering for experiment output.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// LatencyStat accumulates a stream of latency samples.
type LatencyStat struct {
	n   uint64
	sum float64
	min int64
	max int64
	m2  float64 // Welford second moment for variance
	mu  float64 // running mean for Welford
}

// Add records one sample.
func (s *LatencyStat) Add(v int64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	s.sum += float64(v)
	delta := float64(v) - s.mu
	s.mu += delta / float64(s.n)
	s.m2 += delta * (float64(v) - s.mu)
}

// Merge folds other into s.
func (s *LatencyStat) Merge(other LatencyStat) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	// Chan et al. parallel variance combination.
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mu - s.mu
	s.mu = (n1*s.mu + n2*other.mu) / (n1 + n2)
	s.m2 = s.m2 + other.m2 + delta*delta*n1*n2/(n1+n2)
	s.n += other.n
	s.sum += other.sum
}

// Count returns the number of samples.
func (s LatencyStat) Count() uint64 { return s.n }

// Sum returns the sample sum.
func (s LatencyStat) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s LatencyStat) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (s LatencyStat) Min() int64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s LatencyStat) Max() int64 { return s.max }

// StdDev returns the population standard deviation.
func (s LatencyStat) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n))
}

// String summarizes the accumulator.
func (s LatencyStat) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%d max=%d sd=%.1f", s.n, s.Mean(), s.min, s.max, s.StdDev())
}

// Histogram is a power-of-two bucketed latency histogram: bucket i counts
// samples in [2^i, 2^(i+1)).
type Histogram struct {
	buckets [64]uint64
	total   uint64
}

// Add records one non-negative sample.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(uint64(v))]++
	h.total++
}

// bucketOf is floor(log2 v), with 0 and 1 both in bucket 0.
func bucketOf(v uint64) int { return bits.Len64(v|1) - 1 }

// Total returns the sample count.
func (h *Histogram) Total() uint64 { return h.total }

// Bucket returns the count of bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// Percentile returns an upper bound for the p-th percentile (0 < p <= 100)
// as the top edge of the bucket containing it.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return int64(1) << uint(i+1)
		}
	}
	return math.MaxInt64
}

// Merge folds other's buckets into h. Percentiles over the merged histogram
// equal percentiles over the concatenated sample streams, so per-channel
// histograms can be combined without replaying samples.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.total += other.total
}

// Table renders aligned fixed-width tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row formatting each cell with %v.
func (t *Table) AddRowf(cells ...interface{}) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.1f", v)
		default:
			s[i] = fmt.Sprint(c)
		}
	}
	t.AddRow(s...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
