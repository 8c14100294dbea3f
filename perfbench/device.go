package main

import "sync/atomic"

// logDevice is the wal.Device the benchmark hands the engine: an in-memory
// log, the cost model of a file on tmpfs (a write copies into memory, a sync
// has nothing to flush), without touching anything outside the benchmark's
// checkout. A file on a VM disk would make fsync (~70-200 µs, varying with
// the neighbours' I/O) the measurement instead of the program. The wrapper
// counts and times the log's device I/O from outside the engine and records
// which prefix of the log the last successful Sync covered. The engine's
// group-commit flusher is its only caller while the engine is open.
type logDevice struct {
	buf     []byte
	sizeCap int // capacity reserved at the first write

	written atomic.Int64 // bytes the engine has written
	synced  atomic.Int64 // bytes covered by the last successful Sync
	writes  atomic.Int64
	syncs   atomic.Int64

	// dropWrite is the negative control: when > 0, that write (1-based) is
	// acknowledged to the engine but its bytes never reach the log, as on a
	// device that loses a synced write.
	dropWrite int64

	// spans turns on per-call timing when set. The timings are read after
	// the engine is closed, which joins the flusher.
	spans   *spanLog
	writeNs histogram
	syncNs  histogram
	busyNs  int64
}

// newLogDevice returns an empty log that reserves sizeCap bytes when first
// written, so the log's growth does not reallocate during the measurement
// (and is not counted in the live heap measured after set-up).
func newLogDevice(sizeCap int, dropWrite int64) *logDevice {
	return &logDevice{sizeCap: sizeCap, dropWrite: dropWrite}
}

func (d *logDevice) Write(p []byte) (int, error) {
	var start int64
	if d.spans != nil {
		start = d.spans.now()
	}
	if d.buf == nil {
		d.buf = make([]byte, 0, d.sizeCap)
	}
	if d.writes.Add(1) != d.dropWrite {
		d.buf = append(d.buf, p...)
	}
	d.written.Add(int64(len(p)))
	if d.spans != nil {
		d.observe(spanWrite, &d.writeNs, start)
	}
	return len(p), nil
}

func (d *logDevice) Sync() error {
	var start int64
	if d.spans != nil {
		start = d.spans.now()
	}
	d.synced.Store(d.written.Load())
	d.syncs.Add(1)
	if d.spans != nil {
		d.observe(spanSync, &d.syncNs, start)
	}
	return nil
}

func (d *logDevice) observe(kind spanKind, h *histogram, start int64) {
	end := d.spans.now()
	h.record(end - start)
	d.busyNs += end - start
	d.spans.keep(span{start: start, end: end, parent: -1, kind: kind})
}

// syncedPrefix returns the log bytes a crash after the last successful Sync
// would leave. With a dropped write the log is shorter than the engine
// believes, and the prefix ends where the log does.
func (d *logDevice) syncedPrefix(synced int64) []byte {
	return d.buf[:min(int(synced), len(d.buf))]
}

// nullDevice is the sink of an engine that recovers a log: recovery writes
// nothing, but the engine's configuration requires a device in value mode.
type nullDevice struct{}

func (nullDevice) Write(p []byte) (int, error) { return len(p), nil }
func (nullDevice) Sync() error                 { return nil }
