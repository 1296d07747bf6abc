package workloads

import (
	"sort"
	"strings"

	"snet/bench/trace"
	"snet/internal/core"
)

// countLinks folds an Instance's final link snapshot into the stream
// counters.
func countLinks(m *Meter, links []core.LinkStats) {
	for _, l := range links {
		m.Count("stream.records", float64(l.SentRecords))
		m.Count("stream.batches", float64(l.SentBatches))
		m.Count("_stream.fill", float64(l.FullFlushes))
		m.Count("_stream.idle", float64(l.IdleFlushes))
		m.Count("_stream.timer", float64(l.TimerFlushes))
		m.Count("_stream.steal", float64(l.Steals))
	}
}

// countOpt records what the optimizer did to the workload's network; the
// figures are properties of the network, not of the run.
func countOpt(m *Meter, o core.OptStats) {
	m.counts["core.entities"] = float64(o.EntitiesAfter)
	m.counts["core.entities_unoptimized"] = float64(o.EntitiesBefore)
	m.counts["core.fused"] = float64(o.FilterFilterFused + o.FilterBoxFused + o.BoxFilterFused)
	m.counts["core.flattened"] = float64(o.SerialsFlattened + o.ChoicesFlattened)
	m.counts["core.pruned"] = float64(o.BranchesPruned + o.ChoicesShortCircuited)
}

// countErrs counts an Instance's runtime errors and dead letters after it
// has closed and returns their sum; closeErr is Close's own result.
func countErrs(m *Meter, inst *core.Instance, closeErr error) int {
	errs := inst.Errs().Total
	if errs == 0 && closeErr != nil {
		errs = 1
	}
	letters, dropped := inst.DeadLetters()
	dead := len(letters) + dropped
	m.Count("core.errs", float64(errs))
	m.Count("core.dead_letters", float64(dead))
	return errs + dead
}

// LayerUnits names every per-layer metric the workloads produce — counts
// read from the packages' exported snapshots, span medians, and the
// driver's own figures — with its unit. The probes (package probe) add
// theirs. A workload that does not exercise a layer reports 0 for it.
var LayerUnits = map[string]string{
	// The paper's claims as ratios of arm medians; each applies to one
	// workload and reads 0 elsewhere.
	"snet_over_seq":      "ratio", // render_fig6: Dynamic arm / sequential kernel
	"snet_over_mpi":      "ratio", // render_fig6: Dynamic arm / MPI master-worker
	"steal_over_block":   "ratio", // render_skewed: DynamicSteal / Dynamic+Block
	"durable_over_plain": "ratio", // pipeline_durable: plain ops/s / durable ops/s

	"stream.records":           "count",
	"stream.batches":           "count",
	"stream.records_per_batch": "ratio",
	"stream.fill_flush_share":  "ratio",
	"stream.idle_flush_share":  "ratio",
	"stream.steal_share":       "ratio",
	"stream.timer_flush_share": "ratio",
	"stream.max_depth":         "count",

	"core.entities":             "count",
	"core.entities_unoptimized": "count",
	"core.fused":                "count",
	"core.flattened":            "count",
	"core.pruned":               "count",
	"core.errs":                 "count",
	"core.dead_letters":         "count",
	"core.new_network_ms":       "ms",
	"core.start_ms":             "ms",
	"core.close_ms":             "ms",
	"lang.parse_ms":             "ms",
	"compile.program_ms":        "ms",

	"dist.execs":            "count",
	"dist.transfers":        "count",
	"dist.messages":         "count",
	"dist.bytes":            "count",
	"dist.steals":           "count",
	"dist.migrated":         "count",
	"dist.busy_imbalance":   "ratio",
	"dist.slot_utilisation": "ratio",

	"wire.remote_execs":    "count",
	"wire.wire_kib":        "KiB",
	"wire.model_kib":       "KiB",
	"wire.wire_over_model": "ratio",
	"wire.retries":         "count",
	"wire.failovers":       "count",

	"journal.appends":          "count",
	"journal.acks":             "count",
	"journal.fsyncs":           "count",
	"journal.segments":         "count",
	"journal.unacked_at_close": "count",

	"snetray.static_ms":           "ms",
	"snetray.dynamic_ms":          "ms",
	"snetray.steal_ms":            "ms",
	"snetray.block_ms":            "ms",
	"mpiray.masterworker_ms":      "ms",
	"mpi.messages":                "count",
	"mpi.bytes":                   "count",
	"driver.samples":              "count",
	"driver.op_ms_p99":            "ms",
	"driver.gen_late_ms_p90":      "ms",
	"driver.trace_overhead_share": "ratio",
	"driver.coordination_share":   "ratio",
}

// spanMetrics maps span names to the per-layer metric that reports their
// median duration.
var spanMetrics = map[string]string{
	"core.new_network":       "core.new_network_ms",
	"core.start":             "core.start_ms",
	"core.close":             "core.close_ms",
	"lang.parse":             "lang.parse_ms",
	"compile.program":        "compile.program_ms",
	"snetray.render.static":  "snetray.static_ms",
	"snetray.render.dynamic": "snetray.dynamic_ms",
	"snetray.render.steal":   "snetray.steal_ms",
	"snetray.render.block":   "snetray.block_ms",
	"mpiray.render":          "mpiray.masterworker_ms",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// RatioNames lists the paper's claims as ratios between the arms of one
// workload, lower is better. A full set gates them on the untraced runs
// (snetbench compare, bound RatioBound); the traced run reports them among
// the per-layer metrics, 0 on the workloads that do not own them.
var RatioNames = []string{"snet_over_seq", "snet_over_mpi", "steal_over_block", "durable_over_plain"}

// RatioBound is the share by which a ratio's median may worsen between two
// sets. BENCHMARK.json has no place for it: a bound there belongs to an
// end-to-end metric, and those every workload must report.
const RatioBound = 0.10

// ratios computes the ratios the window's arms support: the arms are
// interleaved over the same inputs, so numerator and denominator saw the
// same host.
func ratios(m *Meter) map[string]float64 {
	arm := func(name string) float64 { return median(m.arms[name]) }
	c := m.counts
	out := map[string]float64{}
	for name, x := range map[string]float64{
		"snet_over_seq":    ratio(arm("dynamic"), arm("seq")),
		"snet_over_mpi":    ratio(arm("dynamic"), arm("mpi")),
		"steal_over_block": ratio(arm("steal"), arm("block")),
		// plain ops/s over durable ops/s, from the arms' own epochs.
		"durable_over_plain": ratio(
			ratio(c["_records.plain"], c["_wall_ms.plain"]),
			ratio(c["_records.durable"], c["_wall_ms.durable"])),
	} {
		if x != 0 {
			out[name] = x
		}
	}
	return out
}

// perLayer turns the traced window's counters, spans and arm times into the
// per-layer metrics of LayerUnits. Internal counters (names starting with
// "_") only feed derived figures.
func perLayer(m *Meter, late float64) map[string]Metric {
	v := map[string]float64{}
	for name := range LayerUnits {
		v[name] = m.counts[name]
	}
	c := m.counts
	batches := c["stream.batches"]
	v["stream.records_per_batch"] = ratio(c["stream.records"], batches)
	v["stream.fill_flush_share"] = ratio(c["_stream.fill"], batches)
	v["stream.idle_flush_share"] = ratio(c["_stream.idle"], batches)
	v["stream.timer_flush_share"] = ratio(c["_stream.timer"], batches)
	v["stream.steal_share"] = ratio(c["_stream.steal"], batches)

	var busy []float64
	for name, ms := range c {
		if strings.HasPrefix(name, "_busy_ms.") {
			busy = append(busy, ms)
		}
	}
	if len(busy) > 0 {
		sort.Float64s(busy)
		total := 0.0
		for _, b := range busy {
			total += b
		}
		v["dist.busy_imbalance"] = ratio(busy[len(busy)-1], total/float64(len(busy)))
		v["dist.slot_utilisation"] = ratio(total, c["_slot_ms"])
	}
	v["wire.wire_kib"] = c["_wire_bytes"] / 1024
	v["wire.model_kib"] = c["_model_bytes"] / 1024
	v["wire.wire_over_model"] = ratio(c["_wire_bytes"], c["_model_bytes"])

	layers := trace.Layers(m.Trace.Spans())
	for span, metric := range spanMetrics {
		v[metric] = trace.MedianMS(layers, span)
	}

	for name, x := range ratios(m) {
		v[name] = x
	}

	v["driver.samples"] = float64(len(m.lat))
	if len(m.lat) >= 1000 {
		v["driver.op_ms_p99"] = Percentile(sortedCopy(m.lat), 0.99)
	}
	v["driver.gen_late_ms_p90"] = late
	off, on := m.split[0], m.split[1]
	if off.wall > 0 && on.wall > 0 && off.ops > 0 {
		v["driver.trace_overhead_share"] = 1 - (on.ops/on.wall)/(off.ops/off.wall)
	}
	// CPU a Dynamic render costs beyond the sequential kernel's CPU for the
	// same scenes: the coordination share of the S-Net vs CnC case study.
	if dyn := c["_cpu_ms.dynamic"]; dyn > 0 {
		v["driver.coordination_share"] = 1 - c["_cpu_ms.seq"]/dyn
	}

	out := make(map[string]Metric, len(v))
	for name, x := range v {
		out[name] = Metric{x, LayerUnits[name]}
	}
	return out
}
