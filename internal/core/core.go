// Package core implements the S-Net streaming runtime: stateless boxes made
// into asynchronous stream components, the four SISO network combinators
// (serial ".." and parallel "|" composition, serial replication "*" and
// indexed parallel replication "!"), filters, synchrocells, and the
// Distributed S-Net placement combinators "@" and "!@".
//
// Every network entity — box or combinator — is a SISO stream transformer:
// it consumes records from one input channel and produces records on one
// output channel. Entities are descriptions; Spawn instantiates them as
// goroutines. An entity owns its output channel and closes it once its input
// is drained and all in-flight work has finished, so network shutdown
// cascades naturally from closing the toplevel input.
//
// Beyond the orderly drain, every instance is cancellable: the environment
// carries a done channel closed by Instance.Stop, every blocking channel
// operation an entity performs selects on it, and every runtime goroutine
// is tracked by a WaitGroup, so an aborted network — even one wedged
// against an unread output or a saturated platform — unwinds completely
// and leaks nothing.
//
//snet:hot
package core

import (
	"fmt"
	"sync"

	"snet/internal/journal"
	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/stream"
)

// Platform abstracts the compute substrate underneath a network: where box
// executions run and what happens when a record crosses between abstract
// compute nodes. It is the runtime's one platform seam. The default
// LocalPlatform runs everything inline on one node; package dist provides a
// multi-node platform with bounded per-node CPU slots and transfer
// accounting, and package wire stretches that across OS processes. A
// platform that needs only some of the behaviour can embed LocalPlatform
// for the rest.
type Platform interface {
	// Nodes returns the number of abstract compute nodes.
	Nodes() int
	// ExecBox runs one box execution on the given node and blocks until
	// it has finished. The runtime offers the box's registered name, its
	// triggering record (only read) and local, the closure that runs the
	// body in this process. A platform gates the execution on a per-node
	// CPU slot, abandons the wait when cancel fires, and, when stealable,
	// may let an idle node claim the queued execution (charging the
	// migration of input). A platform that can execute a box in another
	// OS process may ship name and input there and return the records
	// the box emitted. Outcomes:
	//
	//   - ok == false: cancel fired before a slot was granted; nothing ran
	//     and outs/remote/err are meaningless.
	//   - ok && !remote: local() ran on the granted slot; outs/err are
	//     meaningless.
	//   - ok && remote: the box ran in a remote process; outs are its raw
	//     emissions (owned by the caller, never aliasing the input) and
	//     err is its failure, if any. A failed remote call may still carry
	//     the emissions queued before the failure, matching local
	//     semantics. The runtime applies output type checking and flow
	//     inheritance to outs exactly as to a local execution's, so remote
	//     and local box calls are indistinguishable downstream.
	//
	// Once local() has started it runs to completion, cancelled or not.
	ExecBox(node int, cancel <-chan struct{}, box string, input *record.Record,
		stealable bool, local func()) (outs []*record.Record, remote, ok bool, err error)
	// Transfer is called when one record moves from node `from` to node
	// `to`. Implementations may account for or delay the transfer. It is
	// never called with from == to.
	Transfer(from, to int, r *record.Record)
	// TransferBatch is Transfer for a whole stream batch crossing in one
	// operation, so per-message framing and per-hop fixed costs (codec
	// locking, modelled link latency) are amortized over the batch. It is
	// never called with from == to or with an empty batch.
	TransferBatch(from, to int, rs []*record.Record)
	// Loads appends each node's scheduling load (CPU slots in use plus
	// queued executions) to dst, a reused scratch slice, for load-aware
	// placement (LeastLoaded). It returns nil when the platform reports
	// no load. It must be safe for concurrent use.
	Loads(dst []int) []int
}

// LocalPlatform is the trivial single-node platform.
type LocalPlatform struct{}

// Nodes returns 1.
func (LocalPlatform) Nodes() int { return 1 }

// ExecBox runs local inline.
func (LocalPlatform) ExecBox(_ int, _ <-chan struct{}, _ string, _ *record.Record,
	_ bool, local func()) ([]*record.Record, bool, bool, error) {
	local()
	return nil, false, true, nil
}

// Transfer does nothing.
func (LocalPlatform) Transfer(from, to int, r *record.Record) {}

// TransferBatch does nothing.
func (LocalPlatform) TransferBatch(from, to int, rs []*record.Record) {}

// Loads reports no load.
func (LocalPlatform) Loads(dst []int) []int { return nil }

// Options configure a network instantiation.
type Options struct {
	// BufferSize is the capacity of every stream link in records — the
	// backpressure bound between adjacent entities. Zero selects
	// DefaultBufferSize; a negative value makes every link fully
	// synchronous (unbuffered, record-at-a-time).
	BufferSize int
	// BatchSize is the records-per-batch ceiling of every stream link.
	// Zero selects stream.DefaultBatchSize; one disables batching
	// (every record is its own channel operation, the pre-batching
	// behavior). Values above BufferSize are clamped to it.
	BatchSize int
	// Platform is the compute substrate; nil means LocalPlatform.
	Platform Platform
	// Placer is the placement policy the dynamic placement sites consult
	// at dispatch time: which node an indexed-split replica (SplitAt) is
	// instantiated on, and where an untagged record is dispatched. Nil
	// selects Static — the pre-stamped-tag convention, where the tag value
	// is the node — which reproduces the pre-policy behavior exactly. It is
	// the one place a policy is set, for the whole instance; a star and its
	// unfoldings run on the star's node under every policy.
	Placer Placer
	// WorkStealing lets a box execution queued on a busy node be claimed
	// by an idle node, when the platform supports migration (ExecBox's
	// stealable; dist.Cluster does). The platform charges its
	// transfer-cost model for the migrated triggering record and counts
	// the steal. Placement combinators still decide the home node;
	// stealing only redistributes work the home node has not started.
	WorkStealing bool
	// CheckTypes enables runtime verification that every record emitted
	// by a box matches one of the box's declared output variants (before
	// flow inheritance). Violations are reported as errors.
	CheckTypes bool
	// Optimize selects how aggressively NewNetwork rewrites the entity
	// tree before instantiation (see Optimize and OptStats). The zero
	// value enables the full rewrite catalogue; OptimizeOff spawns the
	// tree exactly as constructed.
	Optimize OptimizeLevel
	// Durability enables the ingress journal: at-least-once delivery with
	// replay after a crash (see Durability and Instance.Recover). Nil
	// keeps the in-memory-only behaviour.
	Durability *Durability
	// BoxRetry governs failed box executions: the zero value reports and
	// moves on (historical behaviour); Attempts >= 1 retries with backoff
	// and dead-letters the record once the budget is exhausted (see
	// BoxRetry and Instance.DeadLetters).
	BoxRetry BoxRetry
}

// DefaultBufferSize is used when Options.BufferSize is zero-valued via
// NewNetwork's option normalization.
const DefaultBufferSize = 32

// Env is the per-network runtime context threaded through entity spawning.
// It carries the platform, the current placement node, the shared error
// sink, the options, and the instance's lifecycle state: a done channel
// closed when the instance is stopped and a WaitGroup tracking every
// runtime goroutine, so Stop can wait for full reclamation.
type Env struct {
	platform Platform
	placer   Placer // placement policy; nil = Static semantics
	node     int
	opts     Options
	errs     *errSink
	done     chan struct{}    // closed by Instance.Stop; nil never happens
	wg       *sync.WaitGroup  // counts every goroutine started via start
	links    *linkReg         // every stream link of the instance
	jnl      *journal.Journal // ingress journal; nil without Durability
	track    *tracker         // delivery completion tracking; nil without a journal
	dead     *deadSink        // retry-exhausted records (BoxRetry)
}

// newEnv builds the root environment.
func newEnv(opts Options) *Env {
	if opts.Platform == nil {
		opts.Platform = LocalPlatform{}
	}
	return &Env{
		platform: opts.Platform,
		placer:   opts.Placer,
		node:     0,
		opts:     opts,
		errs:     &errSink{},
		done:     make(chan struct{}),
		wg:       &sync.WaitGroup{},
		links:    &linkReg{},
		dead:     &deadSink{},
	}
}

// linkReg tracks every stream link an instance creates, so Instance can
// expose per-link depth and throughput counters. Links are registered at
// creation time, which happens both at instantiation and dynamically
// (star unfoldings, split replicas), hence the lock. The registry is also
// the links' allocator: Link structs are carved out of fixed-size slabs
// (a slab is never reallocated once handed out, so the pointers stay
// stable), which keeps deep networks — a star unrolling one stage per
// record wave — at roughly one allocation per link, the channel itself.
//
// A long-lived instance keeps creating links (every star unfolding and
// every single-shot split replica makes two), so the registry must not pin
// them all forever: alloc periodically sweeps links whose receiver has
// observed end-of-stream (their counters are final) into a cumulative
// aggregate and drops the references, bounding live registry size by the
// number of links still carrying traffic. The sweep threshold doubles
// with the surviving population, keeping the amortized sweep cost per
// alloc constant.
type linkReg struct {
	mu      sync.Mutex
	links   []*stream.Link
	slab    []stream.Link // current slab; grown slot by slot up to its cap
	sweepAt int           // next sweep when len(links) reaches this
	retired stream.Stats  // folded counters of swept (exhausted) links
	nswept  int           // how many links the aggregate covers
}

// linkSlabSize is how many Link structs share one slab allocation.
const linkSlabSize = 16

// linkSweepMin is the registry size below which no sweep happens.
const linkSweepMin = 64

func (lr *linkReg) alloc(cfg stream.Config) *stream.Link {
	lr.mu.Lock()
	if len(lr.slab) == cap(lr.slab) {
		lr.slab = make([]stream.Link, 0, linkSlabSize)
	}
	lr.slab = lr.slab[:len(lr.slab)+1]
	l := &lr.slab[len(lr.slab)-1]
	l.Init(cfg)
	lr.links = append(lr.links, l)
	if lr.sweepAt < linkSweepMin {
		lr.sweepAt = linkSweepMin
	}
	if len(lr.links) >= lr.sweepAt {
		lr.sweep()
	}
	lr.mu.Unlock()
	return l
}

// sweep folds exhausted links into the retired aggregate. Callers hold mu.
func (lr *linkReg) sweep() {
	kept := lr.links[:0]
	for _, l := range lr.links {
		if !l.Exhausted() {
			kept = append(kept, l)
			continue
		}
		s := l.Stats()
		lr.retired.SentRecords += s.SentRecords
		lr.retired.RecvRecords += s.RecvRecords
		lr.retired.SentBatches += s.SentBatches
		lr.retired.FullFlushes += s.FullFlushes
		lr.retired.IdleFlushes += s.IdleFlushes
		lr.retired.TimerFlushes += s.TimerFlushes
		lr.retired.Steals += s.Steals
		lr.nswept++
	}
	clear(lr.links[len(kept):])
	lr.links = kept
	lr.sweepAt = max(linkSweepMin, 2*len(kept))
}

func (lr *linkReg) snapshot() []stream.Stats {
	lr.mu.Lock()
	// Copy: sweep compacts lr.links in place, so a shared view would race.
	links := make([]*stream.Link, len(lr.links))
	copy(links, lr.links)
	retired, nswept := lr.retired, lr.nswept
	lr.mu.Unlock()
	out := make([]stream.Stats, 0, len(links)+1)
	if nswept > 0 {
		out = append(out, retired)
	}
	for _, l := range links {
		out = append(out, l.Stats())
	}
	return out
}

// At returns a copy of the environment placed on the given node.
func (e *Env) At(node int) *Env {
	c := *e
	c.node = node
	return &c
}

// dynamicPlacer returns the placement policy when it makes decisions at
// dispatch time, nil when placement follows the static pre-stamped-tag
// convention (no policy configured, or explicitly Static — by value or by
// pointer, since the stateful sibling policies are naturally passed as
// pointers).
func (e *Env) dynamicPlacer() Placer {
	switch e.placer.(type) {
	case nil, Static, *Static:
		return nil
	}
	return e.placer
}

// place resolves the node for dispatch key key under the environment's
// placement policy. scratch is a caller-owned reusable slice for the load
// snapshot (placement sites place from a single dispatcher goroutine, so a
// per-site scratch never contends).
func (e *Env) place(key int, scratch *[]int) int {
	n := e.Nodes()
	if n <= 1 {
		return 0
	}
	p := e.placer
	if p == nil {
		return ((key % n) + n) % n
	}
	var load []int
	// Skip the snapshot for policies that declare they never read it:
	// Loads takes the platform's scheduler lock, which per-record dispatch
	// should not contend for nothing.
	if _, skip := p.(loadFree); !skip {
		*scratch = e.platform.Loads(*scratch)
		load = *scratch
	}
	return ((p.Place(key, n, load) % n) + n) % n
}

// Node returns the abstract compute node the current entity is placed on.
func (e *Env) Node() int { return e.node }

// Nodes returns the platform's node count.
func (e *Env) Nodes() int { return e.platform.Nodes() }

// start launches fn as an instance goroutine tracked by the lifecycle
// WaitGroup. Every goroutine the runtime spawns goes through here, so
// Instance.Stop can wait for all of them to be reclaimed.
func (e *Env) start(fn func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn()
	}()
}

// send delivers r on out unless the instance has been stopped. It reports
// whether the record was delivered; on false the caller must unwind (its
// output is no longer wanted).
func (e *Env) send(out *stream.Link, r *record.Record) bool {
	return out.Send(r, e.done)
}

// sendMany delivers rs in order on out under one link-lock acquisition;
// the slice stays the caller's. False means the instance was stopped
// mid-delivery and the caller must unwind.
func (e *Env) sendMany(out *stream.Link, rs []*record.Record) bool {
	return out.SendMany(rs, e.done)
}

// stopped reports whether the instance has been aborted.
func (e *Env) stopped() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// recv takes the next record from in, giving up when the instance is
// stopped. Stop promptness is batch-granular: a stopped instance finishes
// the batch it already holds (at most BatchSize records) and gives up at
// the next batch boundary.
func (e *Env) recv(in *stream.Link) (*record.Record, bool) {
	return in.Recv(e.done)
}

// transfer accounts one record moving between nodes; same-node moves are
// free.
func (e *Env) transfer(from, to int, r *record.Record) {
	if from != to {
		e.platform.Transfer(from, to, r)
	}
}

// transferBatch accounts a whole batch moving between nodes in one
// platform operation (dist.Cluster sizes the batch against the link codec
// under a single lock and charges modelled link latency once per batch,
// not once per record); same-node moves are free.
func (e *Env) transferBatch(from, to int, rs []*record.Record) {
	if from != to && len(rs) > 0 {
		e.platform.TransferBatch(from, to, rs)
	}
}

// newLink allocates a stream link with the configured capacity and
// batching, registered for Instance.LinkStats.
func (e *Env) newLink() *stream.Link {
	return e.links.alloc(stream.Config{
		Capacity:  e.opts.BufferSize,
		BatchSize: e.opts.BatchSize,
	})
}

// closeLink ends a link: pending records are flushed (or dropped, when the
// instance is already stopped) and the receiver observes end-of-stream.
func (e *Env) closeLink(l *stream.Link) { l.Close(e.done) }

// report records a runtime error.
func (e *Env) report(err error) { e.errs.add(err) }

// maxRetainedErrors bounds the error sink: under a sustained flood of
// malformed input the sink keeps the first maxRetainedErrors errors (the
// ones that tell the story) plus a count of everything dropped, so a
// long-lived instance cannot grow memory without limit.
const maxRetainedErrors = 64

// errSink accumulates runtime errors from concurrently executing entities,
// retaining at most maxRetainedErrors of them. The stopped marker lives
// outside the capped retention: ErrStopped must surface from Err even when
// an error flood has already filled the sink.
type errSink struct {
	mu        sync.Mutex
	errs      []error
	total     int // every error ever reported, retained or not
	dropped   int // errors beyond the retention cap
	droppedBy [numErrorCategories]int
	stopped   bool
}

func (s *errSink) add(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	s.total++
	if len(s.errs) < maxRetainedErrors {
		s.errs = append(s.errs, err)
	} else {
		s.dropped++
		s.droppedBy[categoryOf(err)]++
	}
	s.mu.Unlock()
}

// markStopped records the instance abort; it counts as one reported error
// but is never subject to the retention cap.
func (s *errSink) markStopped() {
	s.mu.Lock()
	s.stopped = true
	s.total++
	s.mu.Unlock()
}

func (s *errSink) all() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]error, 0, len(s.errs)+2)
	if s.stopped {
		out = append(out, ErrStopped)
	}
	out = append(out, s.errs...)
	if s.dropped > 0 {
		out = append(out, fmt.Errorf(
			"snet: %d further errors dropped (first %d retained)",
			s.dropped, maxRetainedErrors))
	}
	return out
}

func (s *errSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// report builds the structured snapshot behind Instance.Errs.
func (s *errSink) report() ErrorReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := ErrorReport{Stopped: s.stopped, Total: s.total}
	rep.Retained = make([]*RuntimeError, len(s.errs))
	for i, err := range s.errs {
		rep.Retained[i] = asRuntimeError(err)
	}
	if s.dropped > 0 {
		rep.Dropped = make(map[ErrorCategory]int)
		for c, n := range s.droppedBy {
			if n > 0 {
				rep.Dropped[ErrorCategory(c)] = n
			}
		}
	}
	return rep
}

// SpawnFunc instantiates an entity: it must start whatever goroutines the
// entity needs, consume `in` until it is closed, and close `out` once all
// output has been produced. Entities exchange records over batched stream
// links (stream.Link); an entity is its input link's single receiver and
// may share its output link with sibling producers: a combinator that hands
// its output to several producers registers them (stream.Link.AddSender),
// each closes it once, and the last close ends the stream.
type SpawnFunc func(env *Env, in, out *stream.Link)

// entityKind discriminates what an Entity is, so the network optimizer can
// rewrite trees structurally (flatten serial/choice nests, fuse stage runs,
// elide identities) without per-combinator knowledge leaking out of the
// constructors. kindOpaque covers everything the optimizer treats as a
// black box (deterministic splits, placement, observers); such nodes still
// participate in optimization through their rebuild hook.
type entityKind uint8

const (
	kindOpaque entityKind = iota
	kindBox
	kindFilter
	kindIdentity
	kindSync
	kindSerial    // n-ary serial chain; kids are the stages in order
	kindChoice    // n-ary nondeterministic choice; kids are the leaves
	kindDetChoice // n-ary deterministic choice; kids are the leaves
	kindFused     // optimizer-built single-goroutine stage tree
	kindStar      // serial replication; rebuild chains a stage-tree operand
	kindSplit     // indexed replication; rebuild puts a stage-tree operand on executors
)

// Entity is a SISO network component: a box, filter, synchrocell, or a
// network built from combinators. Entities are immutable descriptions and
// may be instantiated any number of times.
type Entity struct {
	// name is the materialized diagnostic name; nameFn computes it on
	// first use. Combinator names compose their operands' names, so eager
	// construction is quadratic-ish string building per compile — names
	// are only needed for diagnostics (Describe, runtime errors), so they
	// stay latent until asked for.
	name     string
	nameFn   func() string
	nameOnce sync.Once

	sig   rtype.Signature
	kids  []*Entity
	spawn SpawnFunc
	kind  entityKind

	// rebuild reconstructs this node around rewritten children (same
	// length and order as kids). Set by combinator constructors the
	// optimizer has no structural rewrite for (star, split, placement,
	// observe), so their operands still get optimized.
	rebuild func(kids []*Entity) *Entity

	// stages is the stage tree a single goroutine threads each record
	// through, with layout sizing its per-instantiation state (see
	// fuseStage). Boxes, filters and synchrocells carry their one-stage
	// tree; a fused entity (kindFused) carries the concatenation and
	// nesting of its parts' trees, and keeps the parts as kids.
	stages []fuseStage
	layout stageLayout
	// exit (kindStar) is the star's exit pattern.
	exit *rtype.Pattern
	// chain (kindStar) makes the star run its unfoldings — operand stage
	// tree and tap — in a driver goroutine instead of spawning the operand
	// per unfolding (see star.drive). Only the optimizer sets it.
	chain bool
	// executors (kindSplit) makes the split keep one state block per tag
	// value and run the operand on reusable executor goroutines instead of
	// spawning it per tag value (see execPool). The operand is a stage tree,
	// a chained star, or a stage tree feeding a chained star (execOperand).
	// Only the optimizer sets it.
	executors bool
	// selTree/selCursors drive choice dispatch (kindChoice/kindDetChoice):
	// the selector tree reproduces nested round-robin tie-breaking over
	// the flattened leaf list; selCursors is the number of cursor slots a
	// dispatcher instance needs. See selNode.
	selTree    *selNode
	selCursors int
	// elide lets a choice dispatcher bypass identity leaves (record goes
	// straight to the merge, no goroutine per leaf). Only the optimizer
	// sets it: plain construction spawns what was written.
	elide bool
	// seqSym is the hidden sequence tag (kindDetChoice and DetSplit):
	// deterministic combinators at different nesting depths use distinct
	// tags so an inner combinator cannot clobber an outer one's stamp.
	seqSym record.Sym

	// detDepth is the maximum nesting depth of deterministic combinators
	// in this subtree (0 = none); constructors propagate it so each Det*
	// entity can pick a sequence tag no nested one will touch.
	detDepth int
	// looseOut marks subtrees whose runtime output can fall outside the
	// declared output type: synchrocells pass unmatched records through
	// unchanged, so everything downstream of one must not trust sig.Out
	// (rtype.Dominated-based pruning is disabled there).
	looseOut bool
}

// maxDetDepth is the detDepth a combinator inherits from its operands.
func maxDetDepth(ops []*Entity) int {
	d := 0
	for _, op := range ops {
		if op.detDepth > d {
			d = op.detDepth
		}
	}
	return d
}

// anyLooseOut is the looseOut a union-typed combinator (choice) inherits.
func anyLooseOut(ops []*Entity) bool {
	for _, op := range ops {
		if op.looseOut {
			return true
		}
	}
	return false
}

// Name returns the entity's diagnostic name.
func (e *Entity) Name() string {
	e.nameOnce.Do(func() {
		if e.nameFn != nil {
			e.name = e.nameFn()
			e.nameFn = nil
		}
	})
	return e.name
}

// Signature returns the entity's (declared or inferred) type signature.
func (e *Entity) Signature() rtype.Signature { return e.sig }

// Spawn instantiates the entity in the given environment.
func (e *Entity) Spawn(env *Env, in, out *stream.Link) {
	e.spawn(env, in, out)
}

// Describe renders the entity tree with names and signatures, one entity
// per line, indented by depth. Under a fused entity the lines are its stage
// tree — what the one goroutine executes in its own stack: each stage with
// its kind, a choice stage's branches marked "|" with their stages below. A
// star that runs its unfoldings as a chain says so, and why it hands off to a
// new driver at every unfolding when it does (its depth no longer shows in
// LinkStats: a chain has no link per unfolding); a split that runs its
// replicas on executors is marked likewise (no link per replica either). It
// is used by the snetc command.
func (e *Entity) Describe() string {
	var b []byte
	line := func(depth int, prefix string, ent *Entity) {
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		b = append(b, prefix...)
		b = append(b, ent.Name()...)
		b = append(b, "  :: "...)
		b = append(b, ent.sig.String()...)
		if ent.chain {
			b = append(b, "  -- chain"...)
			if ent.kids[0].layout.ungated {
				b = append(b, ", hand-off at every unfolding: ungated box"...)
			}
		}
		if ent.executors {
			b = append(b, "  -- executors"...)
		}
		b = append(b, '\n')
	}
	var stages func(ss []fuseStage, depth int)
	stages = func(ss []fuseStage, depth int) {
		for i := range ss {
			s := &ss[i]
			line(depth, s.kind.String()+" ", s.ent)
			for j, br := range s.branches {
				line(depth+1, "| ", s.ent.kids[j])
				stages(br, depth+2)
			}
		}
	}
	var walk func(ent *Entity, depth int)
	walk = func(ent *Entity, depth int) {
		line(depth, "", ent)
		if ent.kind == kindFused {
			stages(ent.stages, depth+1)
			return
		}
		for _, k := range ent.kids {
			walk(k, depth+1)
		}
	}
	walk(e, 0)
	return string(b)
}

// relay copies src to dst in whole batches, accounting each batch as moved
// from node `from` to node `to` (free when they are equal), and closes dst
// when src is exhausted or the instance is stopped. One platform transfer
// and one link operation per batch, not per record.
func (e *Env) relay(src, dst *stream.Link, from, to int) {
	defer e.closeLink(dst)
	for {
		b, ok := src.RecvBatch(e.done)
		if !ok {
			return
		}
		e.transferBatch(from, to, b.Recs)
		if !dst.SendBatch(b, e.done) {
			return
		}
	}
}

// entityError annotates a runtime error with the entity that raised it.
func entityError(name string, err error) error {
	return fmt.Errorf("snet: entity %s: %w", name, err)
}
