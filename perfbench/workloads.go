package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"next700/internal/core"
	"next700/internal/workload"
)

func newOutcome() *outcome {
	return &outcome{metrics: values{}, facts: map[string]any{}}
}

// account adds a window's transactions to the run's attempted and failed
// operations.
func (o *outcome) account(w *window) {
	o.attempted += w.txns
	o.failed += w.failed
	if w.firstErr != nil {
		o.note("transactions", fmt.Errorf("%d of %d failed, first: %w", w.failed, w.txns, w.firstErr))
	}
}

// tracers gives each client its own span log and tracer, nil when the run
// is not traced. logs[clients] is the log of spans outside transactions:
// set-up, load and recovery.
func tracers(o *options, base time.Time) ([]*txnTracer, []*spanLog) {
	trs := make([]*txnTracer, clients)
	logs := make([]*spanLog, clients+1)
	for i := range logs {
		logs[i] = newSpanLog(base)
	}
	if o.trace {
		for i := range trs {
			trs[i] = newTxnTracer(logs[i], i)
		}
	}
	return trs, logs
}

func mergeLayers(trs []*txnTracer) *layerAgg {
	agg := new(layerAgg)
	for _, t := range trs {
		if t != nil {
			agg.merge(&t.layers)
		}
	}
	return agg
}

// slicesPerRun is how many slices a measurement is cut into.
const slicesPerRun = 20

// measure warms the engine up with a second's worth of transactions, then
// measures the run's work: perSecond transactions for each of the run's
// seconds. A garbage collection before the measured stretch starts it from
// the same heap state, so it holds the same collections on every run of the
// same program.
func measure(o *options, e *core.Engine, cs []client, perSecond int, res *outcome) *series {
	hist := newClientHists(len(cs))
	var warm window
	runPhase(e, cs, int(float64(perSecond)*o.sizes.warmup.Seconds()), hist, &warm)
	res.account(&warm)
	m := new(series)
	slice := int(float64(perSecond) * o.seconds / slicesPerRun)
	runtime.GC()
	for i := 0; i < slicesPerRun; i++ {
		m.run(e, cs, slice, hist)
	}
	res.account(&m.sum)
	return m
}

// dumpSpans writes the kept spans of a traced run and records where.
func dumpSpans(o *options, res *outcome, logs []*spanLog) error {
	path := filepath.Join(o.logDir, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
	kept, skipped, err := writeSpans(path, logs)
	if err != nil {
		return err
	}
	res.facts["spans_file"] = path
	res.facts["spans_kept"] = kept
	res.facts["spans_not_kept"] = skipped
	res.facts["trace_sample_every"] = sampleEvery
	return nil
}

// runYCSBHot: SILO over a hash-indexed 1,048,576-row table, Zipf θ = 0.9,
// no logging.
func runYCSBHot(o *options) (*outcome, error) {
	res := newOutcome()
	rows := o.sizes.hotRows
	trs, logs := tracers(o, time.Now())
	var ss setupSamples
	var db *ycsbDB
	for i := 0; i < o.sizes.setups; i++ {
		if db != nil {
			db.eng.Close()
			db = nil
			runtime.GC()
		}
		d, st, err := openYCSB(rows, o.seed, nil)
		if err != nil {
			return nil, err
		}
		db = d
		ss.add(st, liveHeapBytes())
		logs[clients].keepSetup(st)
	}
	defer db.eng.Close()

	cs := make([]client, clients)
	acked := make([][]uint32, clients)
	for i := range cs {
		c := newYCSBClient(db, i, rows, 0.9, o.seed, trs[i])
		cs[i], acked[i] = c, c.acked
	}
	m := measure(o, db.eng, cs, o.sizes.hotPerSecond, res)
	bad, err := db.checkCounters(acked)
	res.addCheck("counters_match_acked_rmw", err, bad)

	res.facts["protocol"] = "SILO"
	res.facts["index"] = "hash"
	res.facts["rows"] = rows
	res.facts["row_bytes"] = db.sch.RowSize()
	res.facts["zipf_theta"] = 0.9
	res.facts["logging"] = "none"
	return res, finish(o, res, m, &ss, mergeLayers(trs), logs)
}

// runTPCC: NO_WAIT, the full TPC-C mix over 2 warehouses, one home
// warehouse per client, no logging.
func runTPCC(o *options) (*outcome, error) {
	res := newOutcome()
	trs, logs := tracers(o, time.Now())
	var ss setupSamples
	var e *core.Engine
	var t *workload.TPCC
	for i := 0; i < o.sizes.setups; i++ {
		if e != nil {
			e.Close()
			e, t = nil, nil
			runtime.GC()
		}
		ee, tt, st, err := openTPCC(o.sizes.tpcc)
		if err != nil {
			return nil, err
		}
		e, t = ee, tt
		ss.add(st, liveHeapBytes())
		logs[clients].keepSetup(st)
	}
	defer e.Close()

	cs := make([]client, clients)
	for i := range cs {
		cs[i] = &tpccClient{t: t, tx: e.NewTx(i, mix(o.seed, uint64(i))), tr: trs[i]}
	}
	m := measure(o, e, cs, o.sizes.tpccPerSecond, res)
	res.addCheck("tpcc_consistency_3.3.2", t.Verify(e), 1)

	cfg := t.Config()
	res.facts["protocol"] = "NO_WAIT"
	res.facts["warehouses"] = cfg.Warehouses
	res.facts["items"] = cfg.Items
	res.facts["customers_per_district"] = cfg.CustomersPerDistrict
	res.facts["loaded_rows"] = ss.rows
	res.facts["mix"] = "45/43/4/4/4"
	res.facts["logging"] = "none"
	if err := finish(o, res, m, &ss, mergeLayers(trs), logs); err != nil {
		return nil, err
	}
	if o.trace {
		tpccMixValues(res.metrics, &m.sum)
	}
	return res, nil
}

// durableLayers accumulates the wal and recovery layers over the rounds of
// a traced ycsb-durable run.
type durableLayers struct {
	write, sync            histogram
	busyNs, wallNs         int64
	syncs, bytes, commits  uint64
	recoverS               []float64
	recoverNs              int64
	records, recordedBytes uint64
	rounds                 uint64
}

// runYCSBDurable: SILO over a 262,144-row table with uniform keys, value
// logging through the default single log with a group-commit window of 0.
// Each round opens a fresh engine and log, runs a fixed number of
// transactions, replays the synced prefix of the log into a fresh engine
// with Engine.Recover, and checks that every acknowledged update survived.
// A run makes one round for every durableRoundSeconds of its seconds.
func runYCSBDurable(o *options) (*outcome, error) {
	res := newOutcome()
	rows := o.sizes.durableRows
	var ss setupSamples
	m := new(series)
	var allRecoverS []float64
	var dl durableLayers
	base := time.Now()
	trs, logs := tracers(o, base)
	other := logs[clients]
	// The device is called from the engine's flusher goroutine, so its
	// spans go to a log of their own.
	devSpans := newSpanLog(base)
	hist := newClientHists(clients)
	rounds := max(2, int(o.seconds/o.sizes.durableRoundSeconds+0.5))
	for round := 0; round < rounds; round++ {
		// A value-logged 16-op transaction writes about 1.1 KB.
		dev := newLogDevice(o.sizes.durableTxns*1280, o.dropWrite)
		if o.trace {
			dev.spans = devSpans
		}
		db, st, err := openYCSB(rows, o.seed, dev)
		if err != nil {
			return nil, err
		}
		ss.add(st, liveHeapBytes())
		other.keepSetup(st)
		cs := make([]client, clients)
		acked := make([][]uint32, clients)
		for i := range cs {
			c := newYCSBClient(db, i, rows, 0, o.seed, trs[i])
			cs[i], acked[i] = c, c.acked
		}
		w := m.run(db.eng, cs, o.sizes.durableTxns, hist)
		// Every client has its last acknowledgement by now: the bytes the
		// last successful Sync covered are all a crash would leave.
		synced := dev.synced.Load()
		res.addCheck("engine_close", db.eng.Close(), 1)

		rs, took, bad, err := recoverAndCheck(dev.syncedPrefix(synced), rows, o.seed, acked, other)
		res.addCheck("acked_updates_recovered", err, bad)
		allRecoverS = append(allRecoverS, took.Seconds())
		if o.trace {
			dl.merge(dev, rs, took, w.wall, w.ctr.Commits)
		}
	}
	res.account(&m.sum)

	res.facts["protocol"] = "SILO"
	res.facts["index"] = "hash"
	res.facts["rows"] = rows
	res.facts["zipf_theta"] = 0.0
	res.facts["rounds"] = len(allRecoverS)
	res.facts["txns_per_round"] = o.sizes.durableTxns
	res.facts["logging"] = "value"
	res.facts["log_device"] = "in memory, tmpfs cost model: Write copies, Sync marks the synced offset"
	res.facts["flush_policy"] = "single log (Config.LogDevice), group-commit window 0: each commit waits for the write and sync of its batch"
	if err := finish(o, res, m, &ss, mergeLayers(trs), append(logs, devSpans)); err != nil {
		return nil, err
	}
	if o.trace {
		dl.values(res.metrics)
	} else {
		res.metrics.set("recovery_s", median(allRecoverS), uint64(len(allRecoverS)))
	}
	return res, nil
}

func (dl *durableLayers) merge(dev *logDevice, rs core.RecoveryStats, took, wall time.Duration, commits uint64) {
	dl.write.merge(&dev.writeNs)
	dl.sync.merge(&dev.syncNs)
	dl.busyNs += dev.busyNs
	dl.wallNs += int64(wall)
	dl.syncs += uint64(dev.syncs.Load())
	dl.bytes += uint64(dev.written.Load())
	dl.commits += commits
	dl.recoverS = append(dl.recoverS, took.Seconds())
	dl.recoverNs += int64(took)
	dl.records += uint64(rs.Records)
	dl.recordedBytes += uint64(rs.Bytes)
	dl.rounds++
}

func (dl *durableLayers) values(vs values) {
	vs.set("wal.syncs_per_commit", ratio(float64(dl.syncs), float64(dl.commits)), dl.syncs)
	vs.set("wal.bytes_per_commit", ratio(float64(dl.bytes), float64(dl.commits)), dl.commits)
	vs.set("wal.write_us", dl.write.quantile(0.5)/1e3, dl.write.n)
	vs.set("wal.sync_us", dl.sync.quantile(0.5)/1e3, dl.sync.n)
	vs.set("wal.device_busy_frac", ratio(float64(dl.busyNs), float64(dl.wallNs)), dl.syncs)
	vs.set("recovery_s", median(dl.recoverS), dl.rounds)
	vs.set("recover.records", ratio(float64(dl.records), float64(dl.rounds)), dl.rounds)
	vs.set("recover.bytes", ratio(float64(dl.recordedBytes), float64(dl.rounds)), dl.rounds)
	vs.set("recover.ns_per_record", ratio(float64(dl.recoverNs), float64(dl.records)), dl.records)
}

// recoverAndCheck replays the synced log prefix into a freshly loaded engine
// and checks every row's counter against the acknowledged
// read-modify-writes. It returns the time Engine.Recover took.
func recoverAndCheck(log []byte, rows, seed uint64, acked [][]uint32, spans *spanLog) (rs core.RecoveryStats, took time.Duration, bad uint64, err error) {
	db, _, err := openYCSB(rows, seed, nullDevice{})
	if err != nil {
		return rs, 0, 1, err
	}
	defer db.eng.Close()
	start := time.Now()
	rs, err = db.eng.Recover(bytes.NewReader(log))
	end := time.Now()
	took = end.Sub(start)
	spans.keepInterval(spanRecover, start, end)
	if err != nil {
		return rs, took, 1, fmt.Errorf("recover: %w", err)
	}
	bad, err = db.checkCounters(acked)
	return rs, took, bad, err
}

// finish derives the reported metrics and, for a traced run, dumps spans.
func finish(o *options, res *outcome, m *series, ss *setupSamples, agg *layerAgg, logs []*spanLog) error {
	res.facts["clients"] = clients
	res.facts["closed_loop"] = true
	res.facts["setups"] = len(ss.total)
	if !o.trace {
		for k, v := range endToEndValues(m, ss) {
			res.metrics[k] = v
		}
		lat := &m.sum.lat
		res.metrics.set("p999_us", lat.quantile(0.999)/1e3, lat.beyond(0.999))
		res.facts["slice_tps"] = m.sliceTPS()
		return nil
	}
	for k, v := range layerValues(m, agg, ss) {
		res.metrics[k] = v
	}
	return dumpSpans(o, res, logs)
}
