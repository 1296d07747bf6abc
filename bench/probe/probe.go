// Package probe measures each runtime layer from outside: every probe is a
// fixed-count timed loop over one package's exported functions, repeated
// Reps times, reported as the median with its quartiles. A probe's figure
// is the per-record (or per-call) cost of the one thing it exercises, so
// that the layers a record crosses can be added up and compared with an
// end-to-end number (ledger.coverage).
package probe

import (
	"fmt"
	"os"
	"sort"
	"time"

	"snet/bench/workloads"
)

// Reps is how many times each probe's loop is repeated.
const Reps = 10

// Result is one probe's figure.
type Result struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Exact marks counts that repeat exactly for a given seed.
	Exact bool `json:"exact,omitempty"`
}

// Units names every metric the probes produce, with its unit.
var Units = map[string]string{
	"record.copy_ns":                    "ns",
	"record.inherit_ns":                 "ns",
	"record.pool_cycle_ns":              "ns",
	"record.copy_allocs":                "count",
	"rtype.match_ns":                    "ns",
	"rtype.bestmatch_ns":                "ns",
	"stream.hop_ns_b1":                  "ns",
	"stream.hop_ns_b16":                 "ns",
	"stream.sendmany_ns":                "ns",
	"core.box_ns":                       "ns",
	"core.filter_ns":                    "ns",
	"core.sync_pair_ns":                 "ns",
	"core.star_iter_ns":                 "ns",
	"core.split_ns":                     "ns",
	"core.choice_ns":                    "ns",
	"core.detchoice_ns":                 "ns",
	"dist.exec_ns":                      "ns",
	"dist.transfer_ns":                  "ns",
	"dist.transfer_batch_ns_per_record": "ns",
	"dist.codec_marshal_ns":             "ns",
	"dist.codec_unmarshal_ns":           "ns",
	"dist.codec_bytes_per_record":       "count",
	"wire.exec_rtt_us":                  "us",
	"journal.append_ns":                 "ns",
	"journal.append_ns_batchsync":       "ns",
	"journal.ack_ns_per_id":             "ns",
	"journal.bytes_per_record":          "count",
	"journal.open_ms":                   "ms",
	"raytrace.render_ms":                "ms",
	"raytrace.section_ms_p50":           "ms",
	"raytrace.section_ms_max":           "ms",
	"raytrace.rays_per_render":          "count",
	"simnet.fig6_dynamic_8node_s":       "s",
	"simnet.fig5_factoring_best_s":      "s",
}

// quartiles returns the median and the first and third quartile of v by
// the nearest-rank rule.
func quartiles(v []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return workloads.Percentile(s, 0.5), workloads.Percentile(s, 0.25), workloads.Percentile(s, 0.75)
}

// set collects results.
type set struct {
	reps int
	out  []Result
	err  error
}

// timed repeats a loop of n iterations s.reps times and records the time per
// iteration in ns. loop must perform exactly n iterations.
func (s *set) timed(name string, n int, loop func()) {
	s.each(name, func() float64 {
		t0 := time.Now()
		loop()
		return float64(time.Since(t0)) / float64(n)
	})
}

// each repeats f s.reps times and records the median of its values.
func (s *set) each(name string, f func() float64) {
	vals := make([]float64, s.reps)
	for i := range vals {
		vals[i] = f()
	}
	med, q1, q3 := quartiles(vals)
	s.out = append(s.out, Result{Name: name, Unit: Units[name], Median: med, Q1: q1, Q3: q3})
}

// exact records a count that is a function of the inputs alone.
func (s *set) exact(name string, v float64) {
	s.out = append(s.out, Result{Name: name, Unit: Units[name], Median: v, Q1: v, Q3: v, Exact: true})
}

func (s *set) fail(layer string, err error) {
	if s.err == nil && err != nil {
		s.err = fmt.Errorf("probe %s: %w", layer, err)
	}
}

// All runs every probe, each loop repeated reps times (Reps for a figure
// worth reading; 1 proves the probe runs). seed picks the scene of the
// raytrace probes; tmp is a scratch directory inside the checkout for the
// journal probes.
func All(seed int64, tmp string, reps int) ([]Result, error) {
	s := &set{reps: reps}
	dir, err := os.MkdirTemp(tmp, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	recordProbes(s)
	streamProbes(s)
	coreProbes(s)
	distProbes(s)
	wireProbes(s)
	journalProbes(s, dir)
	appProbes(s, seed)
	return s.out, s.err
}
