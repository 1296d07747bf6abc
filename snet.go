// Package snet is a Go implementation of the S-Net coordination language
// (Penczek et al., "Message Driven Programming with S-Net: Methodology and
// Performance", ICPP Workshops 2010): stateless boxes turned into
// asynchronous stream-processing components, composed into single-input
// single-output networks by four algebraic combinators, with structural
// subtyping and flow inheritance on record streams, synchrocells, filters,
// and the Distributed S-Net placement combinators.
//
// The package is a facade over the implementation packages:
//
//   - records and the type system (internal/record, internal/rtype),
//   - the batched stream transport between entities (internal/stream),
//   - the streaming runtime and combinators (internal/core),
//   - the language front end and compiler (internal/lang, internal/compile),
//   - the multi-node platform (internal/dist).
//
// See docs/architecture.md for the layer map, docs/combinators.md for
// combinator semantics, and docs/performance.md for the transport's
// batching model and tuning.
//
// # Building networks
//
// Networks are built either programmatically,
//
//	inc := snet.NewBox("inc", snet.MustSig(
//	        []snet.Label{snet.F("x")}, []snet.Label{snet.F("x")}),
//	    func(c *snet.BoxCall) error {
//	        c.Emit(snet.NewRecord().SetField("x", c.Field("x").(int)+1))
//	        return nil
//	    })
//	net := snet.NewNetwork(snet.Serial(inc, inc), snet.Options{})
//
// or compiled from S-Net source text with boxes registered by name:
//
//	reg := snet.NewRegistry()
//	reg.RegisterBox("inc", incFn)
//	res, err := snet.CompileSource(`
//	    net twice { box inc ((x) -> (x)); } connect inc .. inc;
//	`, reg)
//
// Run feeds records through a fresh instantiation and collects the output:
//
//	outs, err := net.Run(snet.NewRecord().SetField("x", 40))
package snet

import (
	"snet/internal/compile"
	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/journal"
	"snet/internal/lang"
	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/stream"
)

// Record is an S-Net record: a set of label–value pairs with opaque fields
// and integer tags.
type Record = record.Record

// RecordBuilder assembles records fluently.
type RecordBuilder = record.Builder

// Sym is an interned label identifier: a dense process-wide integer handle
// for a label name. Hot-path code interns its labels once (InternLabel) and
// uses the Sym-keyed record and BoxCall accessors, turning label matching
// and access into integer scans.
type Sym = record.Sym

// RecordPool recycles records so steady-state pipelines run
// allocation-free. Pooling is opt-in and follows the stream ownership
// contract: only a record's current single owner may return it.
type RecordPool = record.Pool

// InternLabel returns the symbol for a label name, assigning one on first
// use.
func InternLabel(name string) Sym { return record.Intern(name) }

// NewRecordPool returns an empty record pool.
func NewRecordPool() *RecordPool { return record.NewPool() }

// NewRecord returns an empty record.
func NewRecord() *Record { return record.New() }

// BuildRecord starts a fluent record builder:
// BuildRecord().F("scene", s).T("tasks", 48).Rec().
func BuildRecord() *RecordBuilder { return record.Build() }

// Label is a classified record label (field, tag or binding tag).
type Label = rtype.Label

// Variant is a set of labels; Type is a disjunction of variants; Pattern is
// a variant plus an optional guard; Signature maps an input type to an
// output type.
type (
	Variant   = rtype.Variant
	Type      = rtype.Type
	Pattern   = rtype.Pattern
	Signature = rtype.Signature
)

// F constructs a field label.
func F(name string) Label { return rtype.F(name) }

// T constructs a tag label.
func T(name string) Label { return rtype.T(name) }

// BT constructs a binding-tag label.
func BT(name string) Label { return rtype.BT(name) }

// NewVariant builds a variant from labels.
func NewVariant(labels ...Label) *Variant { return rtype.NewVariant(labels...) }

// NewType builds a type from variants.
func NewType(variants ...*Variant) *Type { return rtype.NewType(variants...) }

// NewPattern builds a guard-free pattern over a variant.
func NewPattern(v *Variant) *Pattern { return rtype.NewPattern(v) }

// NewSignature builds a type signature.
func NewSignature(in, out *Type) Signature { return rtype.NewSignature(in, out) }

// Runtime types re-exported from the core.
type (
	// Entity is a SISO network component (box, filter, synchrocell or
	// combinator composition).
	Entity = core.Entity
	// BoxCall is the per-record context handed to a box function.
	BoxCall = core.BoxCall
	// BoxFunc is the body of a box.
	BoxFunc = core.BoxFunc
	// Options configure a network instantiation: the platform, stream
	// capacity (BufferSize, in records), transport batching (BatchSize —
	// see docs/performance.md), the placement policy
	// (Placer) and work stealing (WorkStealing — see docs/performance.md
	// "Scheduling & placement"), the instantiation-time optimizer
	// (Optimize — see OptimizeLevel), runtime type checking, synchrocell
	// flushing, and the delivery guarantees (Durability, BoxRetry — see
	// docs/architecture.md "Durability & delivery guarantees").
	Options = core.Options
	// Network is an instantiable S-Net. Beyond Run, it offers
	// RunContext (Run bounded by a context: cancellation stops the
	// instance and reclaims every goroutine) and Start, which returns an
	// Instance for streaming use.
	Network = core.Network
	// Instance is one running network instantiation. Orderly shutdown:
	// close In (or call CloseIn or Close) and drain Out. Abort: call Stop
	// — every runtime goroutine, including those blocked on an unread Out
	// or queued for a platform CPU slot, is reclaimed before Stop
	// returns, and in-flight records are discarded. LinkStats snapshots
	// the per-link depth and throughput counters of the batched
	// transport; Errs the structured error report; DeadLetters the
	// retry-exhausted records; Recover replays a crashed instance's
	// journal (Options.Durability).
	Instance = core.Instance
	// LinkStats is a snapshot of one stream link's traffic counters —
	// records and batches sent, current queued depth, and the flush-cause
	// breakdown (fill-up, downstream-idle, timer, steal) — as returned by
	// Instance.LinkStats, one entry per link in creation order.
	LinkStats = core.LinkStats
	// OptimizeLevel selects how aggressively NewNetwork rewrites the
	// entity tree before instantiation (Options.Optimize): the zero value
	// OptimizeFull flattens combinator nests, elides identities, fuses
	// adjacent stateless entities and prunes dead choice branches;
	// OptimizeOff spawns the tree exactly as constructed. See
	// docs/performance.md "Optimizer".
	OptimizeLevel = core.OptimizeLevel
	// OptStats reports what the optimizer did to a network — entity
	// counts before/after and per-rewrite tallies — as returned by
	// Network.OptStats and Instance.OptStats next to LinkStats.
	OptStats = core.OptStats
	// Platform abstracts the compute substrate (see dist.Cluster): where
	// box executions run (ExecBox, with cancellation, work stealing and
	// execution in another process), what a record crossing nodes costs
	// (Transfer, TransferBatch), and per-node load for LeastLoaded
	// (Loads). It is the one platform interface; embed LocalPlatform for
	// the methods a platform does not need.
	Platform = core.Platform
	// Placer is a placement policy: it decides, at dispatch time, which
	// compute node a dynamically placed unit of work — an indexed-split
	// replica or an untagged record under SplitAt — runs on. A star's
	// unfoldings stay on the star's node under every policy. Set it via
	// Options.Placer; nil keeps the Static convention.
	Placer = core.Placer
	// Static places by dispatch key modulo node count — the
	// pre-stamped-tag convention of Distributed S-Net, and the default.
	Static = core.Static
	// RoundRobin cycles dispatch units over the nodes regardless of key.
	RoundRobin = core.RoundRobin
	// LeastLoaded places each dispatch unit on the node with the smallest
	// current load (Platform.Loads), falling back to round-robin.
	LeastLoaded = core.LeastLoaded
	// LocalPlatform is the trivial single-node platform.
	LocalPlatform = core.LocalPlatform
	// FilterRule, FilterOutput and TagAssign describe filters
	// programmatically.
	FilterRule = core.FilterRule
	// FilterOutput is one output template of a filter rule.
	FilterOutput = core.FilterOutput
	// TagAssign sets a tag from an expression in a filter output.
	TagAssign = core.TagAssign
)

// Durability and error-handling types re-exported from the core (see
// docs/architecture.md "Durability & delivery guarantees").
type (
	// Durability configures at-least-once delivery (Options.Durability):
	// every record accepted on Instance.In is journaled to Dir before it
	// enters the network and acknowledged only when its whole derivation
	// tree has completed; Instance.Recover replays a crashed instance's
	// unacknowledged records.
	Durability = core.Durability
	// BoxRetry configures box failure handling (Options.BoxRetry): with
	// Attempts >= 1 a failed execution's partial emissions are discarded
	// and the box re-runs against the unchanged input, exhaustion landing
	// the exact record in Instance.DeadLetters.
	BoxRetry = core.BoxRetry
	// DeadLetter is one record a box gave up on: the unmodified input,
	// the entity name, the attempt count and the final error.
	DeadLetter = core.DeadLetter
	// RuntimeError is one structured runtime error: the reporting entity,
	// a category, the offending record's shape, and the wrapped error.
	RuntimeError = core.RuntimeError
	// ErrorCategory classifies a RuntimeError (ErrCatNoMatch, ErrCatBox,
	// ErrCatPanic, ErrCatTypeCheck, ErrCatJournal, ErrCatOther).
	ErrorCategory = core.ErrorCategory
	// ErrorReport is Instance.Errs's snapshot: retained errors plus
	// per-category counts of everything beyond the retention cap.
	ErrorReport = core.ErrorReport
	// FsyncPolicy selects when journal appends are forced to stable
	// storage (Durability.Fsync).
	FsyncPolicy = journal.FsyncPolicy
)

// Runtime error categories for ErrorCategory.
const (
	// ErrCatOther covers errors with no more specific category.
	ErrCatOther = core.ErrCatOther
	// ErrCatNoMatch is a record matching no input variant, filter rule,
	// or choice branch.
	ErrCatNoMatch = core.ErrCatNoMatch
	// ErrCatBox is a box body returning an error.
	ErrCatBox = core.ErrCatBox
	// ErrCatPanic is a box body panicking (recovered by the runtime).
	ErrCatPanic = core.ErrCatPanic
	// ErrCatTypeCheck is a CheckTypes violation.
	ErrCatTypeCheck = core.ErrCatTypeCheck
	// ErrCatJournal is a durability failure: the ingress journal refusing
	// an append or acknowledgement.
	ErrCatJournal = core.ErrCatJournal
)

// Journal fsync policies for Durability.Fsync.
const (
	// FsyncNever leaves flushing to the OS page cache (and Close).
	FsyncNever = journal.FsyncNever
	// FsyncBatch syncs at most once per Durability.FsyncInterval.
	FsyncBatch = journal.FsyncBatch
	// FsyncAlways syncs every append before it is acknowledged.
	FsyncAlways = journal.FsyncAlways
)

// ErrStopped is reported by instances aborted with Instance.Stop or a
// cancelled RunContext: the network did not run to completion and records
// in flight were discarded. Test with errors.Is.
var ErrStopped = core.ErrStopped

// Optimizer levels for Options.Optimize (see OptimizeLevel).
const (
	// OptimizeFull — the default — enables the whole rewrite catalogue.
	OptimizeFull = core.OptimizeFull
	// OptimizeOff instantiates the entity tree exactly as constructed.
	OptimizeOff = core.OptimizeOff
)

// DefaultBatchSize is the records-per-batch ceiling of every stream link
// when Options.BatchSize is zero (see docs/performance.md for the model and
// tuning).
const DefaultBatchSize = stream.DefaultBatchSize

// MustSig builds a single-input-variant signature from label lists.
func MustSig(in []Label, outs ...[]Label) Signature { return core.MustSig(in, outs...) }

// NewBox creates a box entity from a name, signature and body.
func NewBox(name string, sig Signature, fn BoxFunc) *Entity {
	return core.NewBox(name, sig, fn)
}

// Serial builds the serial composition A..B.
func Serial(a, b *Entity) *Entity { return core.Serial(a, b) }

// SerialAll folds Serial left to right.
func SerialAll(first *Entity, rest ...*Entity) *Entity { return core.SerialAll(first, rest...) }

// Choice builds the parallel composition A|B|... with type-driven dispatch.
func Choice(branches ...*Entity) *Entity { return core.Choice(branches...) }

// DetChoice builds the deterministic parallel composition A||B||...: like
// Choice, but the output stream preserves the input order.
func DetChoice(branches ...*Entity) *Entity { return core.DetChoice(branches...) }

// Star builds the serial replication A*exit.
func Star(a *Entity, exit *Pattern) *Entity { return core.Star(a, exit) }

// Split builds the indexed parallel replication A!<tag>.
func Split(a *Entity, tag string) *Entity { return core.Split(a, tag) }

// DetSplit builds the deterministic indexed parallel replication A!!<tag>:
// like Split, but the output stream preserves the input order.
func DetSplit(a *Entity, tag string) *Entity { return core.DetSplit(a, tag) }

// SplitAt builds the indexed dynamic placement A!@<tag> of Distributed
// S-Net.
func SplitAt(a *Entity, tag string) *Entity { return core.SplitAt(a, tag) }

// At builds the static placement A@node of Distributed S-Net.
func At(a *Entity, node int) *Entity { return core.At(a, node) }

// NewFilter builds a filter entity from rules.
func NewFilter(name string, rules ...FilterRule) *Entity { return core.NewFilter(name, rules...) }

// Identity builds the identity filter [].
func Identity() *Entity { return core.Identity() }

// NewSync builds a synchrocell [| p1, p2, ... |].
func NewSync(patterns ...*Pattern) *Entity { return core.NewSync(patterns...) }

// ObserveDirection tells an observer callback whether a record was entering
// or leaving the observed entity.
type ObserveDirection = core.ObserveDirection

// Observation directions.
const (
	// ObserveIn reports a record entering the observed entity.
	ObserveIn = core.ObserveIn
	// ObserveOut reports a record leaving the observed entity.
	ObserveOut = core.ObserveOut
)

// ObserverCounter counts records entering and leaving an observed entity.
type ObserverCounter = core.Counter

// Observe wraps an entity with a transparent observer: fn sees every record
// entering and leaving the operand without affecting network semantics.
func Observe(a *Entity, fn func(dir ObserveDirection, r *Record)) *Entity {
	return core.Observe(a, fn)
}

// NewNetwork wraps an entity into a runnable network.
func NewNetwork(e *Entity, opts Options) *Network { return core.NewNetwork(e, opts) }

// Language front end re-exports.
type (
	// Program is a parsed S-Net compilation unit.
	Program = lang.Program
	// Expr is a parsed connect expression.
	Expr = lang.Expr
	// Registry binds box names to Go implementations and net names to
	// pre-built networks.
	Registry = compile.Registry
	// CompileResult holds the compiled networks and warnings.
	CompileResult = compile.Result
)

// Parse parses S-Net source text.
func Parse(src string) (*Program, error) { return lang.Parse(src) }

// ParseExpr parses a standalone connect expression.
func ParseExpr(src string) (Expr, error) { return lang.ParseExpr(src) }

// NewRegistry returns an empty box/net registry.
func NewRegistry() *Registry { return compile.NewRegistry() }

// CompileSource parses and compiles S-Net source against the registry.
func CompileSource(src string, reg *Registry) (*CompileResult, error) {
	return compile.Source(src, reg)
}

// CompileProgram compiles a parsed program against the registry.
func CompileProgram(prog *Program, reg *Registry) (*CompileResult, error) {
	return compile.Program(prog, reg)
}

// CompileExpr compiles a standalone connect expression against the
// registry.
func CompileExpr(e Expr, reg *Registry) (*Entity, []string, error) {
	return compile.Expr(e, reg)
}

// Cluster is the multi-node platform of Distributed S-Net: bounded CPU
// slots per abstract node, per-hop transfer accounting via the record wire
// codec, and an optional transfer-cost model (latency plus bandwidth delay,
// see Cluster.SetTransferCost) for exploring communication-bound regimes.
type Cluster = dist.Cluster

// ClusterStats is a snapshot of a cluster's accounting counters: per-node
// execution counts and busy times, cross-node transfer and byte totals,
// and the work-stealing counters (Steals, Migrated).
type ClusterStats = dist.Stats

// NewCluster creates a cluster platform with the given number of nodes and
// CPU slots per node. Pass it as Options.Platform to place a network onto
// the cluster; the placement combinators At and SplitAt decide which node
// each subnetwork runs on.
func NewCluster(nodes, cpusPerNode int) *Cluster { return dist.NewCluster(nodes, cpusPerNode) }
