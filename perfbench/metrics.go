package main

import "sort"

// metricDef is one reported metric. The two lists below are the metric
// catalogue of BENCHMARK.json at the repository root; TestCatalogueMatches
// keeps them in step.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the engine sees, measured with tracing off.
var endToEnd = []metricDef{
	{"tps", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_txn", "count", "lower", 0.05},
	{"heap_mb", "MB", "lower", 0.05},
}

// perLayer is derived from a traced run. README.md in this directory maps
// each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"core.attempts_per_txn", "count", "lower", 0},
	{"core.retry_waste_frac", "frac", "lower", 0},
	{"core.commit_self_us", "us", "lower", 0},
	{"core.read_ns", "ns", "lower", 0},
	{"core.update_ns", "ns", "lower", 0},
	{"cc.aborts_per_commit", "count", "lower", 0},
	{"cc.waits_per_txn", "count", "lower", 0},
	{"tpcc.reads_per_txn", "count", "lower", 0},
	{"tpcc.inserts_per_txn", "count", "lower", 0},
	{"tpcc.scans_per_txn", "count", "lower", 0},
	{"tpcc.user_abort_frac", "frac", "lower", 0},
	{"wal.syncs_per_commit", "count", "lower", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.write_us", "us", "lower", 0},
	{"wal.sync_us", "us", "lower", 0},
	{"wal.device_busy_frac", "frac", "lower", 0},
	{"recovery_s", "s", "lower", 0},
	{"recover.records", "count", "lower", 0},
	{"recover.bytes", "B", "lower", 0},
	{"recover.ns_per_record", "ns", "lower", 0},
	{"load.ns_per_row", "ns", "lower", 0},
	{"storage.heap_bytes_per_user_byte", "ratio", "lower", 0},
	{"gc.cycles_per_10k_txn", "count", "lower", 0},
	{"gc.pause_p99_us", "us", "lower", 0},
	{"sched.latency_p99_us", "us", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// contextMetrics are printed with tracing off but are not part of the
// result: p99.9 varies by ~20% between identical runs because GC and the
// scheduler own that tail, and recovery_s exists on ycsb-durable only (it is
// a per-layer metric of the traced run).
var contextMetrics = []metricDef{
	{"p999_us", "us", "lower", 0},
	{"recovery_s", "s", "lower", 0},
}

// value is a measured metric with the number of samples behind it.
type value struct {
	v       float64
	samples uint64
}

// values holds the metrics one run reports.
type values map[string]value

func (vs values) set(name string, v float64, samples uint64) { vs[name] = value{v, samples} }

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setupSamples collects every set-up of a run; the medians are reported.
type setupSamples struct {
	total, nsPerRow, heapMB, heapPerUserByte []float64
	rows                                     uint64
}

func (s *setupSamples) add(st setupTimes, heap uint64) {
	s.total = append(s.total, st.end.Sub(st.start).Seconds())
	s.nsPerRow = append(s.nsPerRow, ratio(float64(st.end.Sub(st.loadStart)), float64(st.rows)))
	s.heapMB = append(s.heapMB, float64(heap)/(1<<20))
	s.heapPerUserByte = append(s.heapPerUserByte, ratio(float64(heap), float64(st.userBytes)))
	s.rows = st.rows
}

// endToEndValues derives the user-visible metrics of a measurement made
// with tracing off.
func endToEndValues(m *series, s *setupSamples) values {
	vs := values{}
	w := &m.sum
	vs.set("tps", w.tps(), w.ctr.Commits)
	vs.set("p50_us", w.lat.quantile(0.50)/1e3, w.lat.n)
	vs.set("p99_us", w.lat.quantile(0.99)/1e3, w.lat.beyond(0.99))
	vs.set("setup_s", median(s.total), uint64(len(s.total)))
	vs.set("allocs_per_txn", ratio(float64(w.allocs), float64(w.ctr.Commits)), w.ctr.Commits)
	vs.set("heap_mb", median(s.heapMB), uint64(len(s.heapMB)))
	return vs
}

// layerValues derives the per-layer metrics every workload has from a
// traced run: span-derived ones from the sampled transactions (agg),
// counters and runtime readings from the whole run. The tpcc, wal and
// recovery metrics are added by the workloads that have them and read 0
// elsewhere.
func layerValues(m *series, agg *layerAgg, s *setupSamples) values {
	vs := values{}
	w := &m.sum
	c := &w.ctr
	txns := float64(w.txns)
	attempts := c.Commits + c.Aborts + c.UserAborts + c.FatalAborts + c.DeadlineAborts + c.PartitionAborts
	vs.set("core.attempts_per_txn", ratio(float64(attempts), txns), w.txns)
	vs.set("core.retry_waste_frac", ratio(float64(agg.wasteNs), float64(agg.runNs)), agg.runs)
	vs.set("core.commit_self_us", agg.commitSelf.quantile(0.5)/1e3, agg.commitSelf.n)
	vs.set("core.read_ns", agg.read.quantile(0.5), agg.read.n)
	vs.set("core.update_ns", agg.update.quantile(0.5), agg.update.n)
	vs.set("cc.aborts_per_commit", ratio(float64(c.Aborts), float64(c.Commits)), c.Commits)
	vs.set("cc.waits_per_txn", ratio(float64(c.Waits), txns), w.txns)
	vs.set("load.ns_per_row", median(s.nsPerRow), uint64(len(s.nsPerRow)))
	vs.set("storage.heap_bytes_per_user_byte", median(s.heapPerUserByte), uint64(len(s.heapPerUserByte)))
	vs.set("gc.cycles_per_10k_txn", ratio(float64(w.gcCycles)*1e4, float64(c.Commits)), w.gcCycles)
	vs.set("gc.pause_p99_us", w.pauses.quantile(0.99)*1e6, w.pauses.total())
	vs.set("sched.latency_p99_us", w.sched.quantile(0.99)*1e6, w.sched.total())
	vs.set("trace.overhead_frac", w.traceOverhead(), uint64(w.tracedTxns))
	return vs
}

// tpccMixValues are exact per-RunOne counts from the engine's counters: they
// change only when the workload does.
func tpccMixValues(vs values, w *window) {
	c, txns := &w.ctr, float64(w.txns)
	vs.set("tpcc.reads_per_txn", ratio(float64(c.Reads), txns), w.txns)
	vs.set("tpcc.inserts_per_txn", ratio(float64(c.Inserts), txns), w.txns)
	vs.set("tpcc.scans_per_txn", ratio(float64(c.Scans), txns), w.txns)
	vs.set("tpcc.user_abort_frac", ratio(float64(c.UserAborts), txns), w.txns)
}
