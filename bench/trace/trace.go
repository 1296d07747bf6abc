// Package trace is the benchmark's in-memory span recorder. The driver
// wraps every call it makes into a runtime layer (lang.parse,
// core.new_network, core.start, snetray.render.dynamic, ...) in a span;
// spans stay in memory for the whole run and are written out once, when the
// workload ends. Tracing inside the runtime is a later change (ROADMAP item
// 2): everything here is observed from outside the packages under test.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span that caused this one (0 for a root).
type Span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Op      int64  `json:"op_id"`
	Parent  int64  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Snapshot is a set of layer counters read at a span boundary.
type Snapshot struct {
	At     string             `json:"at"`
	NS     int64              `json:"ns"`
	Counts map[string]float64 `json:"counts"`
}

// Recorder collects spans. A nil *Recorder is valid and records nothing,
// which is how the untraced run pays nothing for the call sites.
type Recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []Span
	snaps []Snapshot
}

// New returns an enabled recorder whose clock starts now.
func New() *Recorder {
	r := &Recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

// SetEnabled switches recording on or off; the traced run alternates the
// two so that its own overhead can be read off one process.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// Enabled reports whether spans are currently being recorded.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// Active is an open span; End closes it. The zero Active is a no-op.
type Active struct {
	r    *Recorder
	span Span
}

// ID is the span's identifier, for use as a child's parent (0 when the
// recorder is off).
func (a Active) ID() int64 { return a.span.ID }

// Begin opens a span.
func (r *Recorder) Begin(name string, op, parent int64) Active {
	if !r.Enabled() {
		return Active{}
	}
	return Active{r: r, span: Span{
		ID: r.next.Add(1), Name: name, Op: op, Parent: parent,
		StartNS: int64(time.Since(r.epoch)),
	}}
}

// End closes the span and stores it.
func (a Active) End() {
	if a.r == nil {
		return
	}
	a.span.EndNS = int64(time.Since(a.r.epoch))
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.span)
	a.r.mu.Unlock()
}

// Add stores a span whose start and end the caller measured itself (a
// record's transit from Send to Out, say, which no single call brackets).
func (r *Recorder) Add(name string, op, parent int64, start, end time.Time) {
	if !r.Enabled() {
		return
	}
	s := Span{ID: r.next.Add(1), Name: name, Op: op, Parent: parent,
		StartNS: int64(start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Snap stores a counter snapshot taken at a named boundary.
func (r *Recorder) Snap(at string, counts map[string]float64) {
	if !r.Enabled() {
		return
	}
	s := Snapshot{At: at, NS: int64(time.Since(r.epoch)), Counts: counts}
	r.mu.Lock()
	r.snaps = append(r.snaps, s)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// Layer aggregates the spans of one name.
type Layer struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is TotalMS minus the part of each span's interval that its
	// child spans cover.
	SelfMS   float64 `json:"self_ms"`
	MedianMS float64 `json:"median_ms"`
}

// Layers folds the spans by name. A span's self time is its duration minus
// the union of its direct children's intervals, clipped to the span.
func Layers(spans []Span) []Layer {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	self := map[string]float64{}
	for _, s := range spans {
		d := s.EndNS - s.StartNS
		durs[s.Name] = append(durs[s.Name], float64(d)/1e6)
		self[s.Name] += float64(d-covered(s, children[s.ID])) / 1e6
	}
	out := make([]Layer, 0, len(durs))
	for name, ds := range durs {
		sort.Float64s(ds)
		total := 0.0
		for _, d := range ds {
			total += d
		}
		out = append(out, Layer{Name: name, Count: len(ds), TotalMS: total,
			SelfMS: self[name], MedianMS: ds[len(ds)/2]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals inside s.
func covered(s Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var sum int64
	at := s.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, at), min(k.EndNS, s.EndNS)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// MedianMS returns the median duration of the spans named name, or 0 when
// there are none.
func MedianMS(layers []Layer, name string) float64 {
	for _, l := range layers {
		if l.Name == name {
			return l.MedianMS
		}
	}
	return 0
}

// File is what WriteFile stores.
type File struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Layers    []Layer    `json:"layers"`
	Snapshots []Snapshot `json:"snapshots"`
	Spans     []Span     `json:"spans"`
}

// WriteFile writes the recorder's spans, per-name aggregates and counter
// snapshots as JSON.
func (r *Recorder) WriteFile(path, workload string, seed int64) error {
	spans := r.Spans()
	r.mu.Lock()
	snaps := append([]Snapshot(nil), r.snaps...)
	r.mu.Unlock()
	data, err := json.Marshal(File{Workload: workload, Seed: seed,
		Layers: Layers(spans), Snapshots: snaps, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
