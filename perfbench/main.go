// Command perfbench is the repository benchmark: three closed-loop workloads
// run against the real engine from one process, each printing its end-to-end
// metrics (tracing off) or its per-layer metrics (tracing on), after
// checking that the engine's results are correct.
//
//	perfbench -workload ycsb-hot|tpcc|ycsb-durable -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Lines before it are the human-readable report: every metric with its unit
// and sample count, and the run's facts (host, sizes, log, flush policy).
// It exits 1 when a correctness check fails and 2 when the run cannot start.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"next700/internal/workload"
)

// clients is the number of closed-loop clients, one engine worker slot
// each, and the GOMAXPROCS the benchmark runs with.
const clients = 2

// options are one invocation's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	logDir   string
	sizes    sizes
	// dropWrite plants the negative control on ycsb-durable: the device
	// loses that synced write (1-based), so the durability check must fail.
	dropWrite int64
	out       io.Writer
}

// sizes are the table sizes and the amounts of work per second of a run.
// A run does a fixed amount of work, close to its seconds at the rates
// measured on a 2-CPU Xeon VM, so two versions of the program are compared
// on the same work.
type sizes struct {
	hotRows       uint64
	hotPerSecond  int
	tpcc          workload.TPCCConfig
	tpccPerSecond int
	durableRows   uint64
	durableTxns   int // per round, over all clients
	// durableRoundSeconds is the share of the run's seconds one round of
	// ycsb-durable stands for: set-up, transactions, recovery and check.
	durableRoundSeconds float64
	setups              int // set-ups per run; the last one is measured
	warmup              time.Duration
}

// fullSizes are the sizes the workloads are defined with. ycsb-hot's table
// (1,048,576 rows, ~317 MB of live heap) is three times a 105 MB LLC;
// ycsb-durable's (262,144 rows, ~79 MB) fits in it.
var fullSizes = sizes{
	hotRows:             1 << 20,
	hotPerSecond:        80000,
	tpcc:                workload.TPCCConfig{Warehouses: 2, MaxThreads: clients},
	tpccPerSecond:       25000,
	durableRows:         1 << 18,
	durableTxns:         50000,
	durableRoundSeconds: 2,
	setups:              3,
	warmup:              time.Second,
}

// smokeSizes make every workload finish in well under a second; the tests
// run with them.
var smokeSizes = sizes{
	hotRows:      4096,
	hotPerSecond: 20000,
	tpcc: workload.TPCCConfig{Warehouses: 2, MaxThreads: clients, Items: 2000,
		CustomersPerDistrict: 60, InitialOrdersPerDistrict: 60},
	tpccPerSecond:       10000,
	durableRows:         4096,
	durableTxns:         400,
	durableRoundSeconds: 0.25,
	setups:              2,
	warmup:              20 * time.Millisecond,
}

// outcome is what one run found.
type outcome struct {
	attempted, failed uint64
	checks            []check
	metrics           values
	facts             map[string]any
}

// check is one correctness check, made runs times; err is the first
// failure, nil when every run passed.
type check struct {
	name string
	runs int
	err  error
}

// addCheck records one run of a named check; a failure counts failures
// (at least one) failed operations.
func (o *outcome) addCheck(name string, err error, failures uint64) {
	if err != nil {
		o.failed += max(failures, 1)
	}
	o.note(name, err)
}

// note records one run of a named check without counting operations.
func (o *outcome) note(name string, err error) {
	for i := range o.checks {
		if c := &o.checks[i]; c.name == name {
			c.runs++
			if c.err == nil {
				c.err = err
			}
			return
		}
	}
	o.checks = append(o.checks, check{name, 1, err})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if c.err != nil {
			return false
		}
	}
	return o.failed == 0 && o.attempted > 0
}

var workloads = map[string]func(*options) (*outcome, error){
	"ycsb-hot":     runYCSBHot,
	"tpcc":         runTPCC,
	"ycsb-durable": runYCSBDurable,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "ycsb-hot, tpcc or ycsb-durable")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of work to measure, at the nominal rates")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.logDir, "logdir", ".bench_build", "directory for span dumps")
	flag.Parse()
	o.trace = trace == 1
	o.sizes = fullSizes
	o.out = os.Stdout
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, have %d", trace))
	}
	res, err := run(&o)
	if err != nil {
		fail(err)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run executes one workload and prints its report and result line.
func run(o *options) (*outcome, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ycsb-hot, tpcc or ycsb-durable)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.logDir, 0o755); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(clients)
	res, err := fn(o)
	if err != nil {
		return nil, err
	}
	res.facts["workload"] = o.workload
	res.facts["seed"] = o.seed
	res.facts["trace"] = o.trace
	for k, v := range hostFacts() {
		res.facts[k] = v
	}
	if err := printReport(o.out, o, res); err != nil {
		return nil, err
	}
	return res, nil
}

func printReport(w io.Writer, o *options, res *outcome) error {
	for _, c := range res.checks {
		status := "ok"
		if c.err != nil {
			status = "FAILED: " + c.err.Error()
		}
		fmt.Fprintf(w, "check %-28s %s (runs=%d)\n", c.name, status, c.runs)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type jsonValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	type reportValue struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples uint64  `json:"samples"`
	}
	metrics := map[string]jsonValue{}
	report := map[string]reportValue{}
	for _, d := range defs {
		v := res.metrics[d.name]
		metrics[d.name] = jsonValue{v.v, d.unit}
		report[d.name] = reportValue{v.v, d.unit, v.samples}
		fmt.Fprintf(w, "%-34s %14.4f %-6s (n=%d)\n", d.name, v.v, d.unit, v.samples)
	}
	if !o.trace {
		for _, d := range contextMetrics {
			if v, ok := res.metrics[d.name]; ok {
				fmt.Fprintf(w, "%-34s %14.4f %-6s (n=%d, context only)\n", d.name, v.v, d.unit, v.samples)
				report[d.name] = reportValue{v.v, d.unit, v.samples}
			}
		}
	}
	facts, err := json.Marshal(map[string]any{"facts": res.facts, "metrics": report})
	if err != nil {
		return fmt.Errorf("encoding the report: %w", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintf(w, "report %s\n%s\n", facts, line)
	return nil
}

// mix derives independent seeds from the run seed (splitmix64 finalizer).
func mix(seed, stream uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
