// Package workloads holds the benchmark's six workloads: their seeded input
// generators, the reference computations every output is checked against,
// and the harness that times set-up, warms up, measures a window and turns
// what it saw into the end-to-end metrics of BENCHMARK.json.
//
// Load shape, common to all workloads: one driver process, at most one
// sending and one receiving goroutine, GOMAXPROCS left at the host's CPU
// count. Inputs come from Config.Seed alone; the runtime under test only
// ever sees generated inputs.
package workloads

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"snet/bench/trace"
)

// Config parameterizes one run of one workload.
type Config struct {
	// Seed feeds scene generation, record values and key order.
	Seed int64
	// Window is the measured window; Warmup runs before it and is
	// discarded.
	Window, Warmup time.Duration
	// SetupReps is the least number of times set-up is performed and
	// timed; setup_s is the median. The first set-up is the one the run
	// uses; the others follow the window and are torn down at once. An
	// untraced run goes on setting up until setupBudget has passed, so
	// that a set-up of microseconds is timed thousands of times and its
	// median repeats.
	SetupReps int
	// TmpDir is a scratch directory inside the checkout (journal segments).
	TmpDir string
	// Trace, when non-nil, makes this the traced run: the window alternates
	// slices with the recorder on and off, and the per-layer counts are
	// collected. End-to-end metrics are never taken from a traced run.
	Trace *trace.Recorder
	// Smoke switches the guard rails off: a 200 ms window proves that the
	// workload runs and names its metrics, not that its numbers hold.
	Smoke bool
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports: the end-to-end metrics
// from an untraced run, the per-layer metrics from a traced one.
type Result struct {
	Attempted int
	Failed    int
	EndToEnd  map[string]Metric
	PerLayer  map[string]Metric
	// Ratios are the arm ratios the workload owns (RatioNames), from the
	// arms' own op times in this run's window; empty on a workload with
	// one arm.
	Ratios map[string]float64
	// Why lists the first few correctness failures, for the log.
	Why []string
	// Counts are the raw counters of the window, internal ones included,
	// for figures that combine them with probe results (ledger.coverage).
	Counts map[string]float64
}

// Workload is one named benchmark workload.
type Workload struct {
	Name string
	// Why records the reason the workload is in the set.
	Why string
	// MinOps is the guard rail: a measured window holding fewer main-arm
	// ops than this is refused.
	MinOps int
	// Setup does everything that precedes the first op and returns the
	// session that runs ops.
	Setup func(cfg *Config) (Session, error)
}

// Session is a set-up workload.
type Session interface {
	// Slice runs ops for about d, accounting them in m.
	Slice(d time.Duration, m *Meter) error
	// Close tears the session down, reporting what it finds at teardown
	// (an undrained journal, say) into m.
	Close(m *Meter) error
}

// All lists the workloads in their fixed order. The names are referred to
// by later issues and by BENCHMARK.json; do not rename.
func All() []Workload {
	return []Workload{
		{"render_fig6", "paper's own comparison; >95% ray tracing, so coordination changes must predict no change here", 100, setupFig6},
		// One DynamicSteal render under the modelled interconnect takes
		// about 240 ms, so a window the contract can afford holds about 50
		// of them; they repeat within 2%. The rail is set where a host at
		// half its speed still passes: a refused run tells a later change
		// nothing, a slow one at least shows up against the bounds.
		{"render_skewed", "virtual load makes the cluster slot model set the makespan, so dist placement/steal quality shows in wall time", 20, setupSkewed},
		{"window_agg", "coordination-bound closed loop: saturated links, so optimizer, batching and record costs move throughput", 100, setupWindowAgg},
		{"window_trickle", "same network, open loop at 2000 rec/s: queues never form, batching is bypassed, flush causes set latency", 100, setupWindowTrickle},
		{"pipeline_durable", "8-box identity pipeline with the ingress journal on: where a group-commit or ack-range change claims its gain", 100, setupPipelineDurable},
		{"wire_pipeline", "the only workload that crosses a socket: the fuse pipeline over loopback TCP to two workers", 100, setupWirePipeline},
	}
}

// Find returns the workload named name.
func Find(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Meter accumulates what a window saw. Sessions report into it; the
// harness reads it.
type Meter struct {
	// Trace is the run's recorder (nil when untraced); sessions open
	// spans on it.
	Trace *trace.Recorder

	lat       []float64            // main-arm per-op times, ms
	sections  [][2]int             // lat[lo:hi] of each main-arm section that timed minSection ops or more
	arms      map[string][]float64 // per-arm op times, ms
	ops       int                  // correct main-arm ops
	attempted int
	failed    int
	why       []string
	wall      time.Duration // wall time of the main-arm sections
	cpu       time.Duration // CPU of the main-arm sections, the pacer's excluded
	pacer     time.Duration // CPU the open loop's sender spent waiting for due times
	mallocs   uint64
	bytes     uint64
	// split[1] holds the main-arm ops and wall time of traced slices,
	// split[0] of untraced ones.
	split  [2]struct{ ops, wall float64 }
	counts map[string]float64
	lateMS []float64
	nextOp int64
}

func newMeter(rec *trace.Recorder) *Meter {
	return &Meter{Trace: rec, arms: map[string][]float64{}, counts: map[string]float64{}}
}

// usage is a point reading of the process's CPU time and allocation
// counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// readUsage reads the counters with runtime.ReadMemStats, which stops the
// world for tens of microseconds but flushes every processor's allocation
// cache first: runtime/metrics is cheaper and lags by up to a cached span
// per size class, which moves allocations between a workload's interleaved
// arms. Sections that are read around must be long next to the pause (the
// wire workload groups its sub-millisecond ops for that reason).
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuNow(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cpuNow is the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is ru_maxrss (KiB on Linux) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// Main runs one section of main-arm work — an op, or an epoch of ops — and
// charges its wall time, CPU and allocations to the workload's per-op
// figures. f returns how many correct ops completed.
func (m *Meter) Main(f func() int) {
	lo := len(m.lat)
	before, pacer := readUsage(), m.pacer
	n := f()
	after := readUsage()
	if hi := len(m.lat); hi-lo >= minSection {
		m.sections = append(m.sections, [2]int{lo, hi})
	}
	wall := after.at.Sub(before.at)
	m.ops += n
	m.wall += wall
	m.cpu += after.cpu - before.cpu - (m.pacer - pacer)
	m.mallocs += after.mallocs - before.mallocs
	m.bytes += after.bytes - before.bytes
	i := 0
	if m.Trace.Enabled() {
		i = 1
	}
	m.split[i].ops += float64(n)
	m.split[i].wall += wall.Seconds()
}

// Op records one main-arm per-op time.
func (m *Meter) Op(d time.Duration) { m.lat = append(m.lat, ms(d)) }

// Arm records one op time of a named arm (the main arm included).
func (m *Meter) Arm(name string, d time.Duration) { m.arms[name] = append(m.arms[name], ms(d)) }

// Checked counts n ops whose outputs were compared with the reference, bad
// of which were wrong, missing or duplicated.
func (m *Meter) Checked(n, bad int, why string) {
	m.attempted += n
	m.failed += bad
	if bad > 0 && len(m.why) < 8 {
		m.why = append(m.why, why)
	}
}

// Count adds to a per-layer counter.
func (m *Meter) Count(name string, delta float64) { m.counts[name] += delta }

// Max raises a per-layer high-water mark.
func (m *Meter) Max(name string, v float64) {
	if v > m.counts[name] {
		m.counts[name] = v
	}
}

// Snap stores the current values of the named counters in the trace, so
// that counts are recorded at the same boundaries as spans.
func (m *Meter) Snap(at string, names ...string) {
	if !m.Trace.Enabled() {
		return
	}
	c := make(map[string]float64, len(names))
	for _, n := range names {
		c[n] = m.counts[n]
	}
	m.Trace.Snap(at, c)
}

// Late records how late the open-loop generator sent one record.
func (m *Meter) Late(d time.Duration) { m.lateMS = append(m.lateMS, ms(d)) }

// Pacer records CPU the load generator burnt waiting for a due time. It is
// the driver's, not the runtime's, and is kept out of cpu_ms_per_op.
func (m *Meter) Pacer(cpu time.Duration) { m.pacer += cpu }

// NextOp returns a fresh op identifier for spans.
func (m *Meter) NextOp() int64 { m.nextOp++; return m.nextOp }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Percentile returns the p-quantile (0..1) of sorted by the nearest-rank
// rule, or 0 for an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// minSection and minSections say when a run's percentiles are taken per
// section: a main-arm section (an epoch, a group of ops) that timed at least
// minSection ops has percentiles of its own, and with at least minSections
// of them the run reports the median section's. A stall of the host then
// costs the epochs it hit, not the run's p90; pooled, every sample of a
// stalled epoch lands in the tail.
const (
	minSection  = 20
	minSections = 5
)

// opPercentile is the run's p-quantile of main-arm op times.
func (m *Meter) opPercentile(p float64) float64 {
	if len(m.sections) < minSections {
		return Percentile(sortedCopy(m.lat), p)
	}
	per := make([]float64, len(m.sections))
	for i, sec := range m.sections {
		per[i] = Percentile(sortedCopy(m.lat[sec[0]:sec[1]]), p)
	}
	return median(per)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return Percentile(sortedCopy(v), 0.5) }

// setupBudget is how long an untraced run goes on repeating its set-up.
const setupBudget = 250 * time.Millisecond

// tracedSlices is how many slices the traced window is cut into; they
// alternate recorder-on and recorder-off so trace overhead is read inside
// one process, under one host state.
const tracedSlices = 8

// Run sets the workload up, warms up, measures one window, times further
// set-ups and returns the result. The error return is for
// runs that must not be reported at all (a guard rail tripped, set-up
// failed); wrong outputs are reported through Result.Failed.
func Run(w Workload, cfg Config) (*Result, error) {
	var setups []float64
	setup := func() (Session, error) {
		span := cfg.Trace.Begin("driver.setup", 0, 0)
		t0 := time.Now()
		s, err := w.Setup(&cfg)
		setups = append(setups, time.Since(t0).Seconds())
		span.End()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		return s, nil
	}
	s, err := setup()
	if err != nil {
		return nil, err
	}
	if cfg.Warmup > 0 {
		cfg.Trace.SetEnabled(false)
		if err := s.Slice(cfg.Warmup, newMeter(cfg.Trace)); err != nil {
			s.Close(newMeter(nil))
			return nil, fmt.Errorf("%s: warm-up: %w", w.Name, err)
		}
		cfg.Trace.SetEnabled(true)
	}
	m := newMeter(cfg.Trace)
	slices := 1
	if cfg.Trace != nil {
		slices = tracedSlices
	}
	for i := 0; i < slices; i++ {
		cfg.Trace.SetEnabled(i%2 == 0)
		if err := s.Slice(cfg.Window/time.Duration(slices), m); err != nil {
			s.Close(newMeter(nil))
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	cfg.Trace.SetEnabled(true)
	rss := peakRSSMiB()
	if err := s.Close(m); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.Name, err)
	}
	// The further set-ups are timed once the process and the host's
	// processors are warm: timed cold, a set-up of microseconds reads up to
	// 40% differently depending on what ran on the host just before. They
	// come after the window and after the reading of the peak RSS, which is
	// the process's high-water mark: a quarter of a second of back-to-back
	// set-ups outruns the collector by 8 to 17 MiB from run to run, and on a
	// workload with a small heap that burst, not the workload, set the peak.
	t0 := time.Now()
	for i := 1; i < cfg.SetupReps || (cfg.Trace == nil && !cfg.Smoke && time.Since(t0) < setupBudget); i++ {
		extra, err := setup()
		if err == nil {
			err = extra.Close(newMeter(nil))
		}
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Attempted: m.attempted, Failed: m.failed, Why: m.why, Counts: m.counts}
	if !cfg.Smoke && m.ops < w.MinOps {
		return res, fmt.Errorf("%s: measured window holds %d ops, fewer than %d: lengthen the window", w.Name, m.ops, w.MinOps)
	}
	sort.Float64s(m.lateMS)
	late := Percentile(m.lateMS, 0.9)
	if !cfg.Smoke && late > 1 {
		return res, fmt.Errorf("%s: open-loop generator ran %.3f ms late at p90 (limit 1 ms): the host stalled, rerun", w.Name, late)
	}
	if m.ops == 0 || m.attempted == 0 {
		return res, fmt.Errorf("%s: no op completed in the window", w.Name)
	}
	ops := float64(m.ops)
	res.Ratios = ratios(m)
	if cfg.Trace == nil {
		res.EndToEnd = map[string]Metric{
			"setup_s":         {median(setups), "s"},
			"ops_per_s":       {ops / m.wall.Seconds(), "op/s"},
			"op_ms_p50":       {m.opPercentile(0.5), "ms"},
			"op_ms_p90":       {m.opPercentile(0.9), "ms"},
			"cpu_ms_per_op":   {ms(m.cpu) / ops, "ms"},
			"allocs_per_op":   {float64(m.mallocs) / ops, "count"},
			"alloc_kb_per_op": {float64(m.bytes) / 1024 / ops, "KiB"},
			"peak_rss_mb":     {rss, "MiB"},
		}
		return res, nil
	}
	res.PerLayer = perLayer(m, late)
	return res, nil
}
