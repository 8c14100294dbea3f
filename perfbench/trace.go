package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanKind names the layer boundary a span brackets. Every span is recorded
// by the benchmark around a call it makes into the engine (or, for the
// device spans, around the engine's call into the benchmark's device), never
// inside the engine.
type spanKind uint8

const (
	spanRun     spanKind = iota // core: Tx.Run, retries and commit included
	spanBody                    // one invocation of the transaction body
	spanRead                    // cc+index through core: Tx.Read
	spanUpdate                  // cc+index through core: Tx.Update
	spanRunOne                  // workload.TPCC.RunOne
	spanWrite                   // wal: Device.Write from the group-commit flusher
	spanSync                    // wal: Device.Sync
	spanSetup                   // core.Open, schema and load
	spanLoad                    // the load loop alone (storage, index inserts)
	spanRecover                 // core: Engine.Recover
)

var spanNames = [...]string{
	spanRun: "core.Tx.Run", spanBody: "body", spanRead: "core.Tx.Read",
	spanUpdate: "core.Tx.Update", spanRunOne: "workload.TPCC.RunOne",
	spanWrite: "wal.Device.Write", spanSync: "wal.Device.Sync",
	spanSetup: "setup", spanLoad: "storage.load", spanRecover: "core.Engine.Recover",
}

// span is one timed interval. Spans of one transaction share txn; parent is
// the index of the enclosing span within that transaction (-1 for a root).
// Times are nanoseconds since the trace base, on the monotonic clock.
type span struct {
	txn        uint64
	start, end int64
	parent     int16
	kind       spanKind
}

// maxKeptSpans bounds the spans one recorder keeps for the span dump, so a
// long traced run has fixed memory; per-layer metrics are derived from every
// sampled transaction, kept or not.
const maxKeptSpans = 1 << 15

// spanLog keeps spans in memory until the run ends and dumps them.
type spanLog struct {
	base    time.Time
	kept    []span
	skipped int
}

func newSpanLog(base time.Time) *spanLog {
	return &spanLog{base: base, kept: make([]span, 0, maxKeptSpans)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) keep(ss ...span) {
	if len(l.kept)+len(ss) > cap(l.kept) {
		l.skipped += len(ss)
		return
	}
	l.kept = append(l.kept, ss...)
}

// keepInterval keeps a span timed outside any transaction.
func (l *spanLog) keepInterval(kind spanKind, from, to time.Time) {
	l.keep(span{start: int64(from.Sub(l.base)), end: int64(to.Sub(l.base)), parent: -1, kind: kind})
}

// keepSetup keeps a set-up's span and its load loop's.
func (l *spanLog) keepSetup(st setupTimes) {
	l.keepInterval(spanSetup, st.start, st.end)
	l.keepInterval(spanLoad, st.loadStart, st.end)
}

// writeSpans dumps every kept span as tab-separated lines.
func writeSpans(path string, logs []*spanLog) (kept, skipped int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "txn\tparent\tname\tstart_ns\tend_ns")
	for _, l := range logs {
		for _, s := range l.kept {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.txn, s.parent, spanNames[s.kind], s.start, s.end)
		}
		kept += len(l.kept)
		skipped += l.skipped
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return kept, skipped, err
	}
	return kept, skipped, f.Close()
}

// sampleEvery is the transaction sampling period of a traced run. A clock
// read costs ~60 ns and a traced 16-op transaction reads it ~36 times
// against ~20 µs of work, so tracing one transaction in eight keeps the
// overhead to a few percent; trace.overhead_frac reports it.
const sampleEvery = 8

// txnTracer records the spans of sampled transactions on one worker and
// folds each finished transaction into the per-layer aggregates.
type txnTracer struct {
	log  *spanLog
	id   uint64 // worker-tagged transaction sequence
	cur  []span // spans of the transaction in flight
	seen uint64 // transactions offered for sampling

	layers layerAgg
}

// layerAgg aggregates what sampled transactions spent in each layer.
type layerAgg struct {
	runs       uint64
	runNs      int64
	wasteNs    int64 // aborted attempts plus backoff: Run start to last body start
	commitSelf histogram
	read       histogram
	update     histogram
}

func (a *layerAgg) merge(o *layerAgg) {
	a.runs += o.runs
	a.runNs += o.runNs
	a.wasteNs += o.wasteNs
	a.commitSelf.merge(&o.commitSelf)
	a.read.merge(&o.read)
	a.update.merge(&o.update)
}

func newTxnTracer(log *spanLog, worker int) *txnTracer {
	return &txnTracer{log: log, id: uint64(worker+1) << 48, cur: make([]span, 0, 256)}
}

// sample reports whether the next transaction is traced.
func (t *txnTracer) sample() bool {
	t.seen++
	return t.seen%sampleEvery == 0
}

func (t *txnTracer) begin(kind spanKind) {
	t.id++
	t.cur = t.cur[:0]
	t.open(kind, -1)
}

func (t *txnTracer) open(kind spanKind, parent int16) int16 {
	t.cur = append(t.cur, span{txn: t.id, start: t.log.now(), parent: parent, kind: kind})
	return int16(len(t.cur) - 1)
}

func (t *txnTracer) close(i int16) { t.cur[i].end = t.log.now() }

// finish closes the root span, derives the transaction's layer times and
// keeps its spans. Self time of Run is its duration minus its body spans:
// Begin, validation, install, log append and the durability wait, plus the
// rollback of aborted attempts and backoff between them.
func (t *txnTracer) finish() {
	t.close(0)
	root := t.cur[0]
	var bodyNs int64
	lastBody := root.start
	for _, s := range t.cur[1:] {
		d := s.end - s.start
		switch s.kind {
		case spanBody:
			bodyNs += d
			lastBody = s.start
		case spanRead:
			t.layers.read.record(d)
		case spanUpdate:
			t.layers.update.record(d)
		}
	}
	runNs := root.end - root.start
	t.layers.runs++
	t.layers.runNs += runNs
	if root.kind == spanRun {
		t.layers.wasteNs += lastBody - root.start
		t.layers.commitSelf.record(runNs - bodyNs)
	}
	t.log.keep(t.cur...)
}
