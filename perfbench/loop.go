package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"next700/internal/core"
	"next700/internal/stats"
)

// client is one closed-loop client: it runs a transaction, waits for it to
// return, and only then runs the next.
type client interface {
	// txn runs one transaction to completion, retries included, and says
	// whether it was traced.
	txn() (traced bool, err error)
}

// runtimeSnap is a reading of the Go runtime's own counters: GC cycles,
// heap allocations, and the GC-pause and scheduling-latency histograms that
// say whether a tail belongs to the engine or to the runtime.
type runtimeSnap struct {
	gcCycles, allocs uint64
	pauses, sched    *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		gcCycles: s[0].Value.Uint64(),
		allocs:   s[1].Value.Uint64(),
		pauses:   s[2].Value.Float64Histogram(),
		sched:    s[3].Value.Float64Histogram(),
	}
}

// liveHeapBytes collects garbage and returns the bytes of live heap objects.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtHist accumulates the growth of one runtime histogram over the phases of
// a window.
type rtHist struct {
	buckets []float64
	counts  []uint64
}

func (h *rtHist) add(before, after *metrics.Float64Histogram) {
	if h.counts == nil {
		h.buckets = after.Buckets
		h.counts = make([]uint64, len(after.Counts))
	}
	for i := range after.Counts {
		h.counts[i] += after.Counts[i] - before.Counts[i]
	}
}

func (h *rtHist) addCounts(o *rtHist) {
	if o.counts == nil {
		return
	}
	if h.counts == nil {
		h.buckets = o.buckets
		h.counts = make([]uint64, len(o.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

func (h *rtHist) total() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// quantile returns the upper bound of the bucket holding the q-quantile, in
// seconds (the runtime's buckets are coarse; the bound is the conservative
// reading).
func (h *rtHist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := uint64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			hi := h.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h.buckets[i]
			}
			return hi
		}
	}
	return 0
}

// window accumulates one or more measured phases: wall time, transactions,
// latency, engine counter deltas, and runtime deltas.
type window struct {
	wall     time.Duration
	txns     uint64
	failed   uint64
	firstErr error
	lat      histogram
	// Latency sums of traced and untraced transactions: the untraced ones
	// that run alongside the traced ones are the run's untraced baseline.
	tracedNs, tracedTxns     int64
	untracedNs, untracedTxns int64
	ctr                      stats.Counter
	gcCycles                 uint64
	allocs                   uint64
	pauses                   rtHist
	sched                    rtHist
}

// traceOverhead is 1 - traced tps / untraced tps. With closed-loop clients
// throughput is inversely proportional to mean latency, and the untraced
// transactions of a traced run give the untraced mean under the same load,
// collections and host noise.
func (w *window) traceOverhead() float64 {
	if w.untracedTxns == 0 || w.tracedTxns == 0 {
		return 0
	}
	untraced := float64(w.untracedNs) / float64(w.untracedTxns)
	all := float64(w.tracedNs+w.untracedNs) / float64(w.tracedTxns+w.untracedTxns)
	return 1 - untraced/all
}

func (w *window) tps() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.ctr.Commits) / w.wall.Seconds()
}

// add merges o into w.
func (w *window) add(o *window) {
	w.wall += o.wall
	w.txns += o.txns
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.lat.merge(&o.lat)
	w.tracedNs += o.tracedNs
	w.tracedTxns += o.tracedTxns
	w.untracedNs += o.untracedNs
	w.untracedTxns += o.untracedTxns
	w.ctr.Add(&o.ctr)
	w.gcCycles += o.gcCycles
	w.allocs += o.allocs
	w.pauses.addCounts(&o.pauses)
	w.sched.addCounts(&o.sched)
}

// series is a measurement made of slices, reported over their sum; the
// slices show how throughput moved during the measurement.
type series struct {
	slices []*window
	sum    window
}

// run measures one more slice of txns transactions.
func (s *series) run(e *core.Engine, cs []client, txns int, hist []*histogram) *window {
	w := new(window)
	runPhase(e, cs, txns, hist, w)
	s.slices = append(s.slices, w)
	s.sum.add(w)
	return w
}

func (s *series) sliceTPS() []float64 {
	tps := make([]float64, len(s.slices))
	for i, w := range s.slices {
		tps[i] = w.tps()
	}
	return tps
}

// newClientHists returns each client's private latency histogram, reused
// across phases so a phase allocates nothing per transaction.
func newClientHists(n int) []*histogram {
	hs := make([]*histogram, n)
	for i := range hs {
		hs[i] = new(histogram)
	}
	return hs
}

// runPhase runs txns transactions, each client in its own goroutine taking
// the next until none are left, and adds the phase to w. A phase is a fixed
// amount of work rather than a fixed time, so it holds the same number of
// garbage collections on every run of the same program. Latency is measured
// from each call into the engine until it returns.
func runPhase(e *core.Engine, cs []client, txns int, hist []*histogram, w *window) {
	// tally is what one client saw; each goroutine keeps its own on its
	// stack and publishes it once, so the clients share no cache line but
	// the work counter.
	type tally struct {
		txns, failed uint64
		firstErr     error
		ns, n        [2]int64 // latency sums and counts, [untraced, traced]
	}
	tallies := make([]tally, len(cs))
	for _, h := range hist {
		*h = histogram{}
	}
	before := e.TotalCounter()
	rtBefore := readRuntime()

	var wg sync.WaitGroup
	start := make(chan struct{})
	var left atomic.Int64
	left.Store(int64(txns))
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, h := cs[i], hist[i]
			var t tally
			<-start
			for left.Add(-1) >= 0 {
				t0 := time.Now()
				traced, err := c.txn()
				d := int64(time.Since(t0))
				h.record(d)
				k := 0
				if traced {
					k = 1
				}
				t.ns[k] += d
				t.n[k]++
				t.txns++
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
				}
			}
			tallies[i] = t
		}(i)
	}
	began := time.Now()
	close(start)
	wg.Wait()
	w.wall += time.Since(began)

	rtAfter := readRuntime()
	after := e.TotalCounter()
	for i, t := range tallies {
		w.txns += t.txns
		w.failed += t.failed
		if w.firstErr == nil {
			w.firstErr = t.firstErr
		}
		w.lat.merge(hist[i])
		w.untracedNs += t.ns[0]
		w.untracedTxns += t.n[0]
		w.tracedNs += t.ns[1]
		w.tracedTxns += t.n[1]
	}
	w.ctr.Add(counterDelta(&before, &after))
	w.gcCycles += rtAfter.gcCycles - rtBefore.gcCycles
	w.allocs += rtAfter.allocs - rtBefore.allocs
	w.pauses.add(rtBefore.pauses, rtAfter.pauses)
	w.sched.add(rtBefore.sched, rtAfter.sched)
}

func counterDelta(a, b *stats.Counter) *stats.Counter {
	return &stats.Counter{
		Commits:         b.Commits - a.Commits,
		Aborts:          b.Aborts - a.Aborts,
		UserAborts:      b.UserAborts - a.UserAborts,
		FatalAborts:     b.FatalAborts - a.FatalAborts,
		DeadlineAborts:  b.DeadlineAborts - a.DeadlineAborts,
		ShedAborts:      b.ShedAborts - a.ShedAborts,
		PartitionAborts: b.PartitionAborts - a.PartitionAborts,
		Reads:           b.Reads - a.Reads,
		Writes:          b.Writes - a.Writes,
		Inserts:         b.Inserts - a.Inserts,
		Deletes:         b.Deletes - a.Deletes,
		Scans:           b.Scans - a.Scans,
		Waits:           b.Waits - a.Waits,
	}
}
