package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snet/bench/workloads"
)

// The driver resolves BENCHMARK.json, .bench_build and bench/out against the
// repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// Every workload runs, checks its outputs, and prints exactly the workload
// and metric names BENCHMARK.json declares.
func TestSmokeNamesMatchTheDeclaration(t *testing.T) {
	d, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if err := smoke(d, 2010); err != nil {
		t.Fatal(err)
	}
	if len(d.PerLayer) > 128 || len(d.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics declared, limits are 128 and 16", len(d.PerLayer), len(d.EndToEnd))
	}
}

// Python's statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := &decl{EndToEnd: []metricDecl{
		{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.10},
		{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.20},
	}}
	d.Workloads = append(d.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(ops, p50 float64, p90 []float64) string {
		s := setFile{Runs: len(p90), Seconds: 15}
		for i, v := range p90 {
			s.Results = append(s.Results, setRun{Workload: "w", Seed: int64(i),
				Ratios: map[string]float64{"steal_over_block": p50 * (1 + 0.001*float64(i))},
				line: line{Correct: true, Attempted: 1,
					Metrics: map[string]workloads.Metric{
						"ops_per_s": {Value: ops * (1 + 0.001*float64(i)), Unit: "op/s"},
						"op_ms_p50": {Value: p50 * (1 + 0.001*float64(i)), Unit: "ms"},
						"op_ms_p90": {Value: v, Unit: "ms"},
					}}})
		}
		data, _ := json.Marshal(s)
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9}
	noisy := []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	a := set(1000, 2.0, steady)
	// Throughput 15% lower is worse; latency 5% higher is within, and so is
	// the arm ratio the runs report, gated at workloads.RatioBound; a p90
	// whose own spread exceeds its bound is unresolved.
	b := set(850, 2.1, noisy)
	var out bytes.Buffer
	ok, err := compare(&out, d, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("compare reported agreement")
	}
	for metric, want := range map[string]string{"ops_per_s": "worse", "op_ms_p50": "within", "steal_over_block": "within", "op_ms_p90": "unresolved"} {
		found := false
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, metric) {
				found = strings.HasSuffix(strings.TrimSpace(l), want)
			}
		}
		if !found {
			t.Errorf("%s: verdict is not %q in\n%s", metric, want, out.String())
		}
	}
	out.Reset()
	if ok, err := compare(&out, d, a, a); err != nil || !ok {
		t.Errorf("a set does not agree with itself (%v):\n%s", err, out.String())
	}
	if _, err := compare(&out, d, a, set(1000, 2.0, steady[:5])); err == nil {
		t.Error("sets of 10 and of 5 runs were compared")
	}
}
