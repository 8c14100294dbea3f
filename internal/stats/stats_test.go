package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"next700/internal/xrand"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Percentile(50) != 0 {
		t.Fatal("empty percentile not zero")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(1234)
	if h.Count() != 1 || h.Min() != 1234 || h.Max() != 1234 {
		t.Fatalf("bad single-value stats: %+v", h.Summarize())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if v := h.Percentile(p); v != 1234 {
			t.Fatalf("p%v = %d, want 1234", p, v)
		}
	}
	if h.Mean() != 1234 {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("negative not clamped")
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 97 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucket not monotonic at %d: %d < %d", v, b, prev)
		}
		prev = b
	}
}

// TestBucketOfBitPositions covers 0 and a value at every one of the 64 bit
// positions: powers of two inside the histogram's range are exact bucket
// boundaries, larger ones clamp to the last bucket, and bit 63 (negative
// as int64) clamps to bucket 0.
func TestBucketOfBitPositions(t *testing.T) {
	if b := bucketOf(0); b != 0 {
		t.Fatalf("bucketOf(0) = %d", b)
	}
	last := maxBuckets*subBuckets - 1
	prev := 0
	for i := 0; i < 64; i++ {
		v := int64(uint64(1) << i)
		b := bucketOf(v)
		switch {
		case i == 63:
			if b != 0 {
				t.Fatalf("bit 63: bucketOf(%d) = %d, want 0 (negative clamps)", v, b)
			}
			continue
		case b < prev:
			t.Fatalf("bit %d: bucket %d below bit %d's %d", i, b, i-1, prev)
		case b == last:
			if lo := bucketLow(b); lo > v {
				t.Fatalf("bit %d: clamped bucket low %d above %d", i, lo, v)
			}
		case bucketLow(b) != v:
			t.Fatalf("bit %d: bucketLow(bucketOf(%d)) = %d, want the value itself", i, v, bucketLow(b))
		}
		prev = b
	}
}

func TestBucketLowInverse(t *testing.T) {
	err := quick.Check(func(raw uint32) bool {
		v := int64(raw)
		idx := bucketOf(v)
		lo := bucketLow(idx)
		// lo must be <= v and map to the same bucket.
		return lo <= v && bucketOf(lo) == idx
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPercentileAccuracy(t *testing.T) {
	// Record uniform values and check percentile error bound (~7%).
	h := NewHistogram()
	rng := xrand.New(1)
	const n = 200000
	for i := 0; i < n; i++ {
		h.Record(int64(rng.Uint64n(1_000_000)))
	}
	for _, p := range []float64{10, 50, 90, 99} {
		got := float64(h.Percentile(p))
		want := p / 100 * 1_000_000
		if math.Abs(got-want)/want > 0.08 {
			t.Fatalf("p%v = %v, want ~%v", p, got, want)
		}
	}
}

func TestPercentileOrdering(t *testing.T) {
	h := NewHistogram()
	rng := xrand.New(2)
	for i := 0; i < 10000; i++ {
		h.Record(int64(rng.Uint64n(1 << 30)))
	}
	prev := int64(-1)
	for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 100} {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentiles not monotone at p%v: %d < %d", p, v, prev)
		}
		prev = v
	}
	if h.Percentile(100) != h.Max() || h.Percentile(0) != h.Min() {
		t.Fatal("extreme percentiles must equal min/max")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b, all := NewHistogram(), NewHistogram(), NewHistogram()
	rng := xrand.New(3)
	for i := 0; i < 5000; i++ {
		v := int64(rng.Uint64n(1 << 22))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(b)
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merge mismatch: %+v vs %+v", a.Summarize(), all.Summarize())
	}
	if a.Percentile(50) != all.Percentile(50) {
		t.Fatal("merged median differs from combined")
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-6 {
		t.Fatal("merged mean differs")
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	b.Record(7)
	b.Record(1000)
	a.Merge(b)
	if a.Min() != 7 || a.Max() != 1000 || a.Count() != 2 {
		t.Fatalf("merge into empty: %+v", a.Summarize())
	}
}

func TestRecordDuration(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(3 * time.Millisecond)
	if h.Max() != int64(3*time.Millisecond) {
		t.Fatal("duration not recorded in ns")
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(int64(i) * 1000)
	}
	s := h.Summarize().String()
	if !strings.Contains(s, "n=100") {
		t.Fatalf("summary string missing count: %s", s)
	}
}

func TestCounter(t *testing.T) {
	var a, b Counter
	a.Commits, a.Aborts, a.Reads = 10, 5, 100
	b.Commits, b.Aborts, b.Writes, b.Waits = 2, 1, 7, 3
	a.Add(&b)
	if a.Commits != 12 || a.Aborts != 6 || a.Reads != 100 || a.Writes != 7 || a.Waits != 3 {
		t.Fatalf("counter add wrong: %+v", a)
	}
	if got := a.AbortRate(); math.Abs(got-6.0/18.0) > 1e-9 {
		t.Fatalf("abort rate %v", got)
	}
	var empty Counter
	if empty.AbortRate() != 0 {
		t.Fatal("empty abort rate must be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("scheme", "tps", "abort")
	tb.AddRow("SILO", 123456.0, 0.0123)
	tb.AddRow("2PL_NOWAIT", 98765.4, 0.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "scheme") || !strings.Contains(lines[0], "tps") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(out, "123456") || !strings.Contains(out, "0.012") {
		t.Fatalf("bad float formatting:\n%s", out)
	}
}

func TestTableSort(t *testing.T) {
	tb := NewTable("n", "v")
	tb.AddRow(10, "a")
	tb.AddRow(2, "b")
	tb.AddRow(33, "c")
	tb.SortRowsBy(0)
	out := tb.String()
	i2, i10, i33 := strings.Index(out, "2 "), strings.Index(out, "10 "), strings.Index(out, "33 ")
	if !(i2 < i10 && i10 < i33) {
		t.Fatalf("numeric sort failed:\n%s", out)
	}
}

func TestHistogramLargeValues(t *testing.T) {
	h := NewHistogram()
	big := int64(1) << 39
	h.Record(big)
	if h.Max() != big {
		t.Fatal("large value lost")
	}
	if p := h.Percentile(99); p != big {
		t.Fatalf("p99 of single large value: %d", p)
	}
}
