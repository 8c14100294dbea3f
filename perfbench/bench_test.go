package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// catalogue is BENCHMARK.json at the repository root.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readCatalogue(t *testing.T) catalogue {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c catalogue
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runSmoke(t *testing.T, o options) (*outcome, resultLine) {
	t.Helper()
	var out bytes.Buffer
	o.seed, o.seconds, o.sizes, o.logDir, o.out = 3, 0.5, smokeSizes, t.TempDir(), &out
	res, err := run(&o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rl resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", o.workload, err, out.String())
	}
	return res, rl
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	c := readCatalogue(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestSmokeEveryWorkloadPrintsEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks that the checks pass and that the result
// line names exactly the catalogue's metrics with their units.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, rl := runSmoke(t, options{workload: name, trace: trace})
			if !rl.Correct || rl.Failed != 0 || rl.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%+v",
					name, trace, rl.Correct, rl.Attempted, rl.Failed, res.checks)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rl.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rl.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rl.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestDroppedSyncedWriteFailsDurabilityCheck is the negative control: a
// device that loses one synced write must make the durability check fail.
func TestDroppedSyncedWriteFailsDurabilityCheck(t *testing.T) {
	res, rl := runSmoke(t, options{workload: "ycsb-durable", dropWrite: 5})
	if rl.Correct || rl.Failed == 0 {
		t.Fatalf("dropped write went unnoticed: correct=%v failed=%d", rl.Correct, rl.Failed)
	}
	for _, c := range res.checks {
		if c.name == "acked_updates_recovered" && c.err != nil {
			return
		}
	}
	t.Fatalf("durability check did not fail: %+v", res.checks)
}

func TestHistogramRelativeError(t *testing.T) {
	for v := int64(1); v < 1<<40; v = v*17/16 + 1 {
		var h histogram
		h.record(v)
		if got := h.quantile(0.5); math.Abs(got-float64(v)) > 0.01*float64(v) {
			t.Fatalf("value %d reads back as %v", v, got)
		}
	}
}
