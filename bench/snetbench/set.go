package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"snet/bench/workloads"
)

// setFile is one full set of runs, as stored under bench/out.
type setFile struct {
	Host    host     `json:"host"`
	Seconds float64  `json:"seconds"`
	Runs    int      `json:"runs"`
	Results []setRun `json:"results"` // untraced, runs per workload
	Traced  []setRun `json:"traced"`  // one per workload
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Ratios are the workload's arm ratios (workloads.RatioNames) in this
	// run.
	Ratios map[string]float64 `json:"ratios,omitempty"`
	line
}

// setRuns is how many untraced runs of each workload make a set: the number
// the acceptance rule's quartiles are taken over.
const setRuns = 10

// probesWith is the workload whose traced run also runs the layer probes in
// a full set. They do not depend on the workload, so once is enough;
// pipeline_durable's ledger.coverage is computed from them.
const probesWith = "pipeline_durable"

// child runs one workload in a process of its own, so that its peak RSS,
// its heap and its goroutines are that workload's alone.
func child(w string, seed int64, seconds int, traced bool) (*setRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if w != probesWith {
			args = append(args, "--probes", "0")
		}
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	run := &setRun{Workload: w, Seed: seed}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.line); err != nil || run.Metrics == nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v)", w, seed, runErr)
	}
	for _, l := range lines[:len(lines)-1] {
		if r, ok := strings.CutPrefix(l, "ratios "); ok {
			if err := json.Unmarshal([]byte(r), &run.Ratios); err != nil {
				return nil, fmt.Errorf("%s seed %d: ratios line: %w", w, seed, err)
			}
		}
	}
	if runErr != nil || !run.Correct {
		return run, fmt.Errorf("%s seed %d: %d of %d ops failed (%v)", w, seed, run.Failed, run.Attempted, runErr)
	}
	return run, nil
}

// runSet runs every workload setRuns times untraced, interleaved so that no
// workload owns one stretch of the host's time, then once traced.
func runSet(d *decl, seed int64) (*setFile, error) {
	set := &setFile{Host: fingerprint(seed, time.Duration(d.RunSeconds)*time.Second, warmup),
		Seconds: float64(d.RunSeconds), Runs: setRuns}
	for r := 0; r < setRuns; r++ {
		for _, w := range d.Workloads {
			run, err := child(w.Name, seed+int64(r), d.RunSeconds, false)
			if err != nil {
				return nil, err
			}
			set.Results = append(set.Results, *run)
			fmt.Fprintf(os.Stderr, "run %d/%d %s ok\n", r+1, setRuns, w.Name)
		}
	}
	for _, w := range d.Workloads {
		run, err := child(w.Name, seed, d.RunSeconds, true)
		if err != nil {
			return nil, err
		}
		set.Traced = append(set.Traced, *run)
		fmt.Fprintf(os.Stderr, "traced %s ok\n", w.Name)
	}
	return set, nil
}

// nextSetPath returns bench/out/set-<k>.json for the first k not yet used:
// the directory is a history, sets are appended to it.
func nextSetPath() string {
	k := 1
	names, _ := filepath.Glob(filepath.Join(outDir, "set-*.json"))
	for _, n := range names {
		if i, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(n), "set-"), ".json")); err == nil && i >= k {
			k = i + 1
		}
	}
	return filepath.Join(outDir, fmt.Sprintf("set-%04d.json", k))
}

func fullSets(d *decl, seed int64, sets int) error {
	if err := checkWorkloads(d); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var paths []string
	for k := 0; k < sets; k++ {
		set, err := runSet(d, seed)
		if err != nil {
			return err
		}
		path := nextSetPath()
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		paths = append(paths, path)
		printSet(os.Stdout, d, set)
		fmt.Printf("set written to %s\n", path)
	}
	if len(paths) >= 2 {
		ok, err := compare(os.Stdout, d, paths[len(paths)-2], paths[len(paths)-1])
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("the two sets do not agree within the bounds")
		}
	}
	return nil
}

// values collects one metric's, or one arm ratio's, values over a
// workload's runs.
func values(runs []setRun, workload, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		} else if x, ok := r.Ratios[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

// gated lists what a set gates on one workload: every end-to-end metric,
// then the arm ratios its untraced runs report.
func gated(d *decl, runs []setRun, workload string) []metricDecl {
	rows := append([]metricDecl(nil), d.EndToEnd...)
	for _, name := range workloads.RatioNames {
		if len(values(runs, workload, name)) > 0 {
			rows = append(rows, metricDecl{Name: name, Unit: "ratio", Better: "lower", Bound: workloads.RatioBound})
		}
	}
	return rows
}

// quartiles returns the median and the quartiles of v as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which is
// what the acceptance criterion is written in.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0, 0, 0
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// printSet prints every metric by name with its unit: the end-to-end
// metrics and arm ratios as median [q1, q3] over the runs, the per-layer
// metrics as read.
func printSet(out io.Writer, d *decl, set *setFile) {
	h, _ := json.Marshal(set.Host)
	fmt.Fprintf(out, "host %s\n", h)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, w := range d.Workloads {
		fmt.Fprintf(tw, "\n%s\t(%d runs of %g s)\t\t\t\t\n", w.Name, set.Runs, set.Seconds)
		fmt.Fprintf(tw, "  metric\tunit\tmedian\tq1\tq3\tspread\tbound\n")
		for _, m := range gated(d, set.Results, w.Name) {
			v := values(set.Results, w.Name, m.Name)
			q1, med, q3 := quartiles(v)
			fmt.Fprintf(tw, "  %s\t%s\t%.5g\t%.5g\t%.5g\t%.3f\t%.2f\n", m.Name, m.Unit, med, q1, q3, spread(v), m.Bound)
		}
		attempted, failed := 0, 0
		for _, r := range set.Results {
			if r.Workload == w.Name {
				attempted += r.Attempted
				failed += r.Failed
			}
		}
		fmt.Fprintf(tw, "  failed_share\tratio\t%g\t(%d of %d ops)\t\t\t\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	}
	tw.Flush()
	fmt.Fprintf(out, "\nper-layer metrics (traced runs, seed %d; the probes ran once, with %s)\n", set.Host.Seed, probesWith)
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  metric\tunit")
	for _, w := range d.Workloads {
		fmt.Fprintf(tw, "\t%s", w.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range d.PerLayer {
		fmt.Fprintf(tw, "  %s\t%s", m.Name, m.Unit)
		for _, w := range d.Workloads {
			v := values(set.Traced, w.Name, m.Name)
			if len(v) == 0 {
				fmt.Fprintf(tw, "\t-")
			} else {
				fmt.Fprintf(tw, "\t%.5g", v[0])
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compare prints, per workload and end-to-end metric or arm ratio, the
// medians and quartiles of sets A and B, the bound and a verdict:
// "unresolved" when either set's own spread is wider than the bound (the
// sets cannot tell a change of that size from noise), "worse" when B's
// median is worse than A's by more than the bound, "within" otherwise. It
// reports whether every verdict is "within".
func compare(out io.Writer, d *decl, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	if a.Runs != b.Runs || a.Seconds != b.Seconds {
		return false, fmt.Errorf("%s holds %d runs of %g s, %s %d runs of %g s: not comparable", pathA, a.Runs, a.Seconds, pathB, b.Runs, b.Seconds)
	}
	fmt.Fprintf(out, "\ncompare A=%s with B=%s (%d runs of %g s each)\n", pathA, pathB, a.Runs, a.Seconds)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB vs A\tbound\tverdict\n")
	all := true
	for _, w := range d.Workloads {
		for _, m := range gated(d, a.Results, w.Name) {
			va, vb := values(a.Results, w.Name, m.Name), values(b.Results, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing from a set", w.Name, m.Name)
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			// worse > 0: B is worse than A by that share of A's median.
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			if verdict != "within" {
				all = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, am, a1, a3, bm, b1, b3, 100*(bm-am)/am, 100*m.Bound, verdict)
		}
		fa, fb := failedOps(a.Results, w.Name), failedOps(b.Results, w.Name)
		verdict := "within"
		if fb > fa {
			verdict, all = "worse", false
		}
		fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d\t%d\t\tmay not rise\t%s\n", w.Name, fa, fb, verdict)
	}
	tw.Flush()
	return all, nil
}

func failedOps(runs []setRun, workload string) int {
	n := 0
	for _, r := range runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}
