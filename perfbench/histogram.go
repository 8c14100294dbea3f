package main

import "math/bits"

// subBits sets the histogram resolution: 2^subBits linear sub-buckets per
// power of two, so a bucket is at most 1/128 (0.78%) of its lower bound wide
// and a reported percentile, the bucket midpoint, is within 0.4% of the
// recorded value. stats.Histogram uses 16 sub-buckets (6.25%), which moves a
// percentile by a whole bucket between identical runs.
const (
	subBits  = 7
	subCount = 1 << subBits
)

// histogram records non-negative int64 values (nanoseconds). The zero value
// is ready to use; it is not safe for concurrent use, so each worker owns one
// and they are merged when a phase ends.
type histogram struct {
	counts [(64 - subBits + 1) * subCount]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := 63 - bits.LeadingZeros64(v) - subBits
	return (shift+1)<<subBits | int((v>>uint(shift))&(subCount-1))
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (low, width uint64) {
	if i < subCount {
		return uint64(i), 1
	}
	shift := uint(i>>subBits - 1)
	return (subCount + uint64(i&(subCount-1))) << shift, 1 << shift
}

func (h *histogram) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) as a bucket midpoint, or 0
// when the histogram is empty.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			low, width := bucketRange(i)
			return float64(low) + float64(width-1)/2
		}
	}
	return 0
}

// beyond returns how many samples lie above the q-quantile, the support a
// tail percentile has.
func (h *histogram) beyond(q float64) uint64 {
	return h.n - uint64(q*float64(h.n))
}
