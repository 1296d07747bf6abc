// Command snetbench is the repository's benchmark driver.
//
//	snetbench --workload W --seed N --seconds S --trace 0|1
//
// runs one workload once and prints, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
// metrics (counts, span medians, probes) with --trace 1. Before it come a
// "host {...}" line, the fingerprint, and on a workload with several arms a
// "ratios {...}" line, the arm ratios of this run. The traced run also
// writes bench/out/trace-W.json; with --probes 0 it leaves the layer probes
// out, which is how a full set runs them once and not six times.
//
//	snetbench [-seed N] [-sets K]
//
// runs a full set — every workload ten times untraced with seeds N..N+9,
// then once traced, each run in its own process, for run_seconds of
// BENCHMARK.json each — prints every metric by name with its unit, and
// stores the set as bench/out/set-<k>.json; with K sets it compares the
// last two.
//
//	snetbench compare A.json B.json
//
// prints, per workload and end-to-end metric or arm ratio, both sets'
// medians and quartiles, the bound and a verdict.
//
//	snetbench -smoke
//
// runs every workload for 200 ms and checks that the metric and workload
// names printed are exactly those BENCHMARK.json declares.
//
// All paths are relative to the repository root, which must be the working
// directory (bench/run.sh sees to that).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"snet/bench/probe"
	"snet/bench/trace"
	"snet/bench/workloads"
)

// Paths inside the checkout.
const (
	declFile = "BENCHMARK.json"
	tmpDir   = ".bench_build/tmp"
	outDir   = "bench/out"
)

// decl is BENCHMARK.json.
type decl struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDecl() (*decl, error) {
	data, err := os.ReadFile(declFile)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var d decl
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", declFile, err)
	}
	return &d, nil
}

// line is the contract's result line.
type line struct {
	Correct   bool                        `json:"correct"`
	Attempted int                         `json:"attempted"`
	Failed    int                         `json:"failed"`
	Metrics   map[string]workloads.Metric `json:"metrics"`
}

// host is the fingerprint printed with every result.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
}

func fingerprint(seed int64, window, warmup time.Duration) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Commit: "unknown", Seed: seed,
		WindowS: window.Seconds(), WarmupS: warmup.Seconds()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

const (
	warmup    = 2 * time.Second
	setupReps = 9
)

// runOne runs one workload once in this process. A traced run also runs the
// layer probes, unless probes is false: they do not depend on the workload,
// and a full set runs them once.
func runOne(w workloads.Workload, seed int64, window time.Duration, traced, probes, smoke bool) (*line, map[string]float64, error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, nil, err
	}
	cfg := workloads.Config{Seed: seed, Window: window, Warmup: warmup, SetupReps: setupReps,
		TmpDir: tmpDir, Smoke: smoke}
	reps := probe.Reps
	if smoke {
		cfg.Warmup, cfg.SetupReps, reps = 0, 1, 1
	}
	if traced {
		cfg.Trace = trace.New()
	}
	res, err := workloads.Run(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	out := &line{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
	for _, why := range res.Why {
		fmt.Fprintln(os.Stderr, "failed:", why)
	}
	if !traced {
		return out, res.Ratios, nil
	}
	out.Metrics = res.PerLayer
	if probes {
		results, err := probe.All(seed, tmpDir, reps)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range results {
			out.Metrics[p.Name] = workloads.Metric{Value: p.Median, Unit: p.Unit}
		}
		out.Metrics["ledger.coverage"] = workloads.Metric{Value: coverage(res, out.Metrics), Unit: "ratio"}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := cfg.Trace.WriteFile(path, w.Name, seed); err != nil {
		return nil, nil, err
	}
	return out, res.Ratios, nil
}

// coverage is the additivity check of ROADMAP item 1 on pipeline_durable's
// plain arm: what the layer probes predict a record costs — one box-entity
// crossing per entity of the network — over the CPU a record was measured
// to cost. A value far from 1 means cost the probes do not account for. 0
// on workloads without a plain arm.
func coverage(res *workloads.Result, m map[string]workloads.Metric) float64 {
	ops := res.Counts["_plain_ops"]
	if ops == 0 {
		return 0
	}
	measuredNS := res.Counts["_plain_cpu_ms"] * 1e6 / ops
	return m["core.entities"].Value * m["core.box_ns"].Value / measuredNS
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames verifies that the metrics printed are exactly the declared
// ones, with the declared units.
func checkNames(got map[string]workloads.Metric, want []metricDecl, what string) error {
	var errs []string
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		g, ok := got[d.Name]
		switch {
		case !nameRE.MatchString(d.Name):
			errs = append(errs, fmt.Sprintf("%q is not a valid name", d.Name))
		case !ok:
			errs = append(errs, d.Name+" declared but not printed")
		case g.Unit != d.Unit:
			errs = append(errs, fmt.Sprintf("%s printed in %q, declared in %q", d.Name, g.Unit, d.Unit))
		}
	}
	for name := range got {
		if !seen[name] {
			errs = append(errs, name+" printed but not declared")
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("%s metrics differ from %s: %s", what, declFile, strings.Join(errs, "; "))
	}
	return nil
}

// checkWorkloads verifies that the workloads are exactly the declared ones.
func checkWorkloads(d *decl) error {
	all := workloads.All()
	if len(all) != len(d.Workloads) {
		return fmt.Errorf("%d workloads, %s declares %d", len(all), declFile, len(d.Workloads))
	}
	for i, w := range all {
		if w.Name != d.Workloads[i].Name || !nameRE.MatchString(w.Name) {
			return fmt.Errorf("workload %d is %q, %s declares %q", i, w.Name, declFile, d.Workloads[i].Name)
		}
	}
	return nil
}

// smoke runs every workload for 200 ms, untraced and traced, and checks
// the names.
func smoke(d *decl, seed int64) error {
	if err := checkWorkloads(d); err != nil {
		return err
	}
	for _, w := range workloads.All() {
		for _, traced := range []bool{false, true} {
			l, _, err := runOne(w, seed, 200*time.Millisecond, traced, true, true)
			if err != nil {
				return err
			}
			if !l.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w.Name, l.Failed, l.Attempted)
			}
			want, what := d.EndToEnd, w.Name+" end-to-end"
			if traced {
				want, what = d.PerLayer, w.Name+" per-layer"
			}
			if err := checkNames(l.Metrics, want, what); err != nil {
				return err
			}
		}
		fmt.Fprintln(os.Stderr, "smoke:", w.Name, "ok")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snetbench:", err)
	os.Exit(1)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fatal(fmt.Errorf("usage: snetbench compare A.json B.json"))
		}
		d, err := loadDecl()
		if err != nil {
			fatal(err)
		}
		ok, err := compare(os.Stdout, d, os.Args[2], os.Args[3])
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "run this one workload and print the contract's result line")
	seed := flag.Int64("seed", 2010, "workload seed: scene generation, record values, key order")
	seconds := flag.Float64("seconds", 0, "one run: measured window in seconds (default, and in a full set: run_seconds of BENCHMARK.json)")
	traced := flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written to bench/out")
	probes := flag.Int("probes", 1, "0 = a traced run without the layer probes (a full set runs them once, not per workload)")
	doSmoke := flag.Bool("smoke", false, "run every workload for 200 ms and check the declared names")
	sets := flag.Int("sets", 1, "full set: how many sets to run; two or more are compared")
	flag.Parse()

	d, err := loadDecl()
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(d.RunSeconds)
	}
	window := time.Duration(*seconds * float64(time.Second))
	switch {
	case *doSmoke:
		if err := smoke(d, *seed); err != nil {
			fatal(err)
		}
	case *name != "":
		w, ok := workloads.Find(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		fp, _ := json.Marshal(fingerprint(*seed, window, warmup))
		fmt.Printf("host %s\n", fp)
		l, ratios, err := runOne(w, *seed, window, *traced == 1, *probes == 1, false)
		if err != nil {
			fatal(err)
		}
		if len(ratios) > 0 {
			r, _ := json.Marshal(ratios)
			fmt.Printf("ratios %s\n", r)
		}
		res, _ := json.Marshal(l)
		fmt.Printf("%s\n", res)
		if !l.Correct {
			os.Exit(1)
		}
	default:
		if err := fullSets(d, *seed, *sets); err != nil {
			fatal(err)
		}
	}
}
