package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks the output
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 0.01, trace: trace,
		sizes: tinySizes, outDir: t.TempDir(), root: ".."}
}

// TestTinyRunsPrintEveryMetric runs every workload at self-test size,
// untraced and traced, and checks that the result line carries every
// metric BENCHMARK.json names, with its unit, and that the human-readable
// report prints it too.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(context.Background(), tinyOptions(t, wl.Name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minIterations {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, name, m, unit)
					continue
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(unit) + `$`)
				if !line.MatchString(out.String()) {
					t.Errorf("%s trace=%v: no report line for %s", wl.Name, trace, name)
				}
			}
		}
	}
}

// TestGateTripsOnDoctoredTruth checks that the correctness gate fails a
// run whose ground truth has been corrupted: one real MAV declared secure,
// one empty address declared vulnerable.
func TestGateTripsOnDoctoredTruth(t *testing.T) {
	for _, wl := range workloads {
		o := tinyOptions(t, wl.name, false)
		o.doctor = true
		var out bytes.Buffer
		res, err := run(context.Background(), o, &out)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: doctored ground truth passed the gate: correct=%v attempted=%d failed=%d",
				wl.name, res.Correct, res.Attempted, res.Failed)
		}
		if !strings.Contains(out.String(), "GATE iteration 0:") {
			t.Errorf("%s: no gate report in output:\n%s", wl.name, out.String())
		}
	}
}

// TestSpecMatchesBenchmark keeps BENCHMARK.json and the code in step.
func TestSpecMatchesBenchmark(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if wl, ok := findWorkload(w.Name); !ok || wl.why != w.Why {
			t.Errorf("workload %s: spec why %q, code %q", w.Name, w.Why, wl.why)
		}
	}
	var names []string
	for _, m := range s.PerLayer {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	if got := perLayerNames(); strings.Join(got, " ") != strings.Join(names, " ") {
		t.Errorf("per-layer metrics:\n code %v\n spec %v", got, names)
	}
	e2e := endToEnd(&phase{its: []iteration{{wall: 1}}})
	if len(e2e) != len(s.EndToEnd) {
		t.Errorf("end-to-end metrics: code has %d, spec %d", len(e2e), len(s.EndToEnd))
	}
	for _, m := range s.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: code unit %q, spec %q", m.Name, e2e[m.Name].Unit, m.Unit)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []spanRec{
		{id: 1, name: "prefilter.probe", start: at(0), end: at(100)},
		{id: 2, parent: 1, name: "httpsim.request", start: at(10), end: at(40)},
		{id: 3, parent: 1, name: "httpsim.request", start: at(30), end: at(60)},
		{id: 4, parent: 1, name: "httpsim.request", start: at(90), end: at(120)},
	}
	got := selfTimes(spans)
	if got["prefilter"] != 40*time.Millisecond || got["httpsim"] != 90*time.Millisecond {
		t.Errorf("self times %v, want prefilter 40ms, httpsim 90ms", got)
	}
}

func TestSummarizeTail(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i))
	}
	got := summarize(s)
	if got.p50 != 500 || got.pct != 99 || got.tail != 990 || got.n != 1000 {
		t.Errorf("summary %+v, want p50 500, p99 990 over 1000", got)
	}
	if got := summarize(s[:100]); got.pct != 90 || got.tail != 90 {
		t.Errorf("summary of 100 %+v, want p90 90", got)
	}
}

// perLayerNames lists every per-layer metric the traced run prints.
func perLayerNames() []string {
	one := &phase{its: []iteration{{wall: 1}}}
	ms := perLayer(newTracer(""), one, one, nil)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
