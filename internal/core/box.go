package core

import (
	"errors"
	"fmt"
	"strings"

	"snet/internal/journal"
	"snet/internal/record"
	"snet/internal/rtype"
)

// BoxCall is the context handed to a box function for one triggering record.
// It gives typed access to the input record and an emitter for output
// records. Flow inheritance is applied by the runtime: labels of the input
// record that were not part of the matched input variant are transferred to
// every emitted record (unless the box emitted an identically labelled
// item, which overrides).
//
// A BoxCall is reused across the invocations of one box instance (boxes are
// sequential per instance); a box function must not retain the BoxCall or
// the input record beyond its own return — the same statelessness contract
// that makes boxes relocatable.
type BoxCall struct {
	// In is the triggering input record. Boxes must treat it as
	// read-only.
	In *record.Record
	// Matched is the input variant the record was matched against.
	Matched *rtype.Variant

	env *Env
	box *boxImpl
	// pending queues what leaves the stage machine the call context belongs
	// to: a box's emissions until the execution is over and, when the box
	// is not the machine's last stage, they move on (see machine); base is
	// where the current execution's emissions start.
	pending  []*record.Record
	base     int
	consumeF []record.Sym
	consumeT []record.Sym
	emitted  int
	// err is the completed execution's failure (body error, or recovered
	// panic as *panicError), left for the caller to handle: attempt
	// decides between report-and-continue, retry, and dead-letter.
	err error
	// noInherit marks a detached call (CallBox): the emissions leave as the
	// box's raw output and the process that dispatched the call applies
	// flow inheritance when they return (see Platform.ExecBox).
	noInherit bool
	// pendArr seeds pending: most boxes emit a handful of records per
	// invocation, so the emission buffer lives inline in the call context
	// and only spills to the heap when a call emits more than fits.
	pendArr [4]*record.Record
}

// Field returns the input field value; it panics when absent (the runtime
// has already verified the matched variant's labels are present).
//
//lint:reason string-keyed convenience surface for cold boxes; hot boxes use the Sym forms below
func (c *BoxCall) Field(name string) any { return c.In.MustField(name) }

// FieldSym returns the input field value by interned symbol; it panics when
// absent. Boxes on hot paths intern their labels once and use this form.
func (c *BoxCall) FieldSym(id record.Sym) any {
	v, ok := c.In.FieldSym(id)
	if !ok {
		panic(fmt.Sprintf("record: field %q absent from %s", record.SymName(id), c.In))
	}
	return v
}

// Tag returns the input tag value; it panics when absent.
//
//lint:reason string-keyed convenience surface for cold boxes; hot boxes use the Sym forms below
func (c *BoxCall) Tag(name string) int { return c.In.MustTag(name) }

// TagSym returns the input tag value by interned symbol; it panics when
// absent.
func (c *BoxCall) TagSym(id record.Sym) int {
	v, ok := c.In.TagSym(id)
	if !ok {
		panic(fmt.Sprintf("record: tag <%s> absent from %s", record.SymName(id), c.In))
	}
	return v
}

// HasTag reports whether the input record carries the tag (useful for
// optional, flow-inherited tags).
//
//lint:reason string-keyed convenience surface for cold boxes; hot boxes use the Sym forms below
func (c *BoxCall) HasTag(name string) bool { return c.In.HasTag(name) }

// HasTagSym reports whether the input record carries the tag symbol.
func (c *BoxCall) HasTagSym(id record.Sym) bool { return c.In.HasTagSym(id) }

// HasField reports whether the input record carries the field.
//
//lint:reason string-keyed convenience surface for cold boxes; hot boxes use the Sym forms below
func (c *BoxCall) HasField(name string) bool { return c.In.HasField(name) }

// HasFieldSym reports whether the input record carries the field symbol.
func (c *BoxCall) HasFieldSym(id record.Sym) bool { return c.In.HasFieldSym(id) }

// Node returns the abstract compute node this box execution runs on.
func (c *BoxCall) Node() int { return c.env.node }

// Emit queues an output record; all queued records are sent downstream once
// the box execution has finished. The runtime applies flow inheritance from
// the input record and, when type checking is enabled, verifies the record
// against the box's declared output type before inheritance.
//
// Queuing instead of sending inline keeps the box's platform CPU slot free
// of stream backpressure: a box never blocks on a full output channel while
// occupying a node CPU, which on a bounded platform (dist.Cluster) could
// deadlock co-located producers and consumers competing for the same slots.
// The queue costs memory proportional to one call's emissions, and Emit
// must be called from the box function's own goroutine — both consequences
// of the box contract that an execution is one atomic transformation.
func (c *BoxCall) Emit(r *record.Record) {
	if c.env.opts.CheckTypes && !c.box.sig.Out.Accepts(r) {
		c.env.reportRT(c.box.name, ErrCatTypeCheck, r.String(), fmt.Errorf(
			"emitted record %s does not match output type %s", r, c.box.sig.Out))
	}
	if !c.noInherit {
		r.InheritFromExcept(c.In, c.consumeF, c.consumeT)
	}
	c.emitted++
	c.pending = append(c.pending, r)
}

// Emitted returns how many records this call has emitted so far.
func (c *BoxCall) Emitted() int { return c.emitted }

// BoxFunc is the body of a box: a pure function of the triggering record
// that emits zero or more output records through the BoxCall. Box functions
// must not retain state between invocations — the S-Net contract that makes
// boxes relocatable and replicable — and must call Emit only from the
// goroutine the body runs on (internal worker goroutines must hand results
// back before the body emits them).
type BoxFunc func(c *BoxCall) error

type boxImpl struct {
	name string
	sig  rtype.Signature
	fn   BoxFunc
}

// NewBox creates a box entity from a name, a type signature and a body.
// Operationally the box is triggered by each arriving record: the record is
// matched against the box's input type, the body runs as a single box
// execution on the current platform node, and the box is only then ready
// for the next record (boxes are sequential per instance, as in S-Net;
// concurrency comes from replication and pipelining).
//
// The consumed-label sets used for flow inheritance are fixed here, at
// construction time: each input variant's interned-symbol slices (built
// once when the signature was constructed) are handed to the per-record
// invocation as-is, so matching and inheritance allocate nothing per
// record.
func NewBox(name string, sig rtype.Signature, fn BoxFunc) *Entity {
	b := &boxImpl{name: name, sig: sig, fn: fn}
	e := &Entity{name: name, sig: sig, kind: kindBox}
	e.setStages([]fuseStage{{kind: stageBox, ent: e, box: b}})
	return e
}

// boxRunner returns the execution closure of a reusable call context: boxes
// are sequential per instance, so the context and the closure are recycled
// across invocations rather than allocated per record. The closure runs
// whichever box call.box names — a stage machine points it at the stage
// being executed.
func boxRunner(call *BoxCall) func() {
	return func() {
		defer func() {
			if p := recover(); p != nil {
				call.err = &panicError{val: p}
			}
		}()
		call.err = call.box.fn(call)
	}
}

// panicError is a recovered box panic, kept distinguishable from an
// ordinary body error so it reports under ErrCatPanic (and so dead letters
// say what actually happened).
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("box panicked: %v", p.val) }

// execute runs one box execution for record r, leaving the emissions in
// call.pending[call.base:] — matching, platform scheduling (ExecBox, which
// may run the body in another process), type checking and flow
// inheritance, but not delivery. ok is false when the instance was stopped
// before the body ran (the caller must unwind); matched is false when r
// matched no input variant (reported, r recycled, nothing pending). On
// matched, call.In stays set until the caller has decided whether r was
// re-emitted (machine.boxCall; the emissions then move on to the next
// stage, or out).
func (b *boxImpl) execute(call *BoxCall, run func(), r *record.Record) (matched, ok bool) {
	env := call.env
	v, score := b.sig.In.BestMatch(r)
	if score < 0 {
		env.reportRT(b.name, ErrCatNoMatch, r.String(), fmt.Errorf(
			"record %s does not match input type %s", r, b.sig.In))
		// The record matched nothing and is dead; the drop is sanctioned,
		// so its delivery completes here. Reclaim it.
		env.trackDrop(r)
		recycle(r)
		return false, true
	}
	call.In = r
	call.Matched = v
	call.consumeF = v.FieldSyms()
	call.consumeT = v.TagSyms()
	call.emitted = 0
	call.err = nil
	// The platform may ship the call to another process: when it did, the
	// returned records are the box's raw emissions, and Emit applies type
	// checking and flow inheritance to them here, on the dispatching side,
	// so remote execution is invisible downstream.
	outs, remote, ok, err := env.platform.ExecBox(env.node, env.done, b.name, r,
		env.opts.WorkStealing, run)
	if !ok {
		// Stopped while queued for a platform CPU slot; the body never
		// ran. Drop the record (stopped instances do not recycle).
		call.In = nil
		call.Matched = nil
		return false, false
	}
	if remote {
		call.err = err
		for _, o := range outs {
			call.Emit(o)
		}
	}
	return true, true
}

// boxErrCategory classifies an execution failure: panics — local (typed) or
// remote (flattened to text by the wire) — report under ErrCatPanic,
// everything else is an ordinary box error.
func boxErrCategory(err error) ErrorCategory {
	var pe *panicError
	if errors.As(err, &pe) || strings.HasPrefix(err.Error(), "box panicked:") {
		return ErrCatPanic
	}
	return ErrCatBox
}

// attempt runs box executions for record r under the instance's retry
// policy (Options.BoxRetry), leaving the successful execution's emissions
// in call.pending. Outcomes mirror execute's, plus dead: with retry enabled
// (Attempts >= 1), a failed attempt's partial emissions are discarded and
// the box re-runs against the unchanged input after a backoff; once the
// budget is exhausted the record moves to the dead-letter queue and dead is
// true — no emission of r is pending and r now belongs to the queue, the
// caller must neither send nor recycle. Without retry, a failure is
// reported and the partial emissions flow (the historical behaviour).
func (b *boxImpl) attempt(call *BoxCall, run func(), r *record.Record) (matched, ok, dead bool) {
	env := call.env
	policy := env.opts.BoxRetry
	for n := 1; ; n++ {
		matched, ok = b.execute(call, run, r)
		if !ok || !matched {
			return matched, ok, false
		}
		err := call.err
		call.err = nil
		if err == nil {
			env.trackFork(r, len(call.pending)-call.base)
			return true, true, false
		}
		cat := boxErrCategory(err)
		if policy.Attempts <= 0 {
			env.reportRT(b.name, cat, r.String(), err)
			env.trackFork(r, len(call.pending)-call.base)
			return true, true, false
		}
		// Failed under retry: the attempt's partial emissions are
		// discarded — a re-run must start from the input record alone, or
		// the attempts' outputs would compound.
		b.discardAttempt(call, r)
		if n >= policy.Attempts {
			env.reportRT(b.name, cat, r.String(), fmt.Errorf(
				"dead-lettered after %d attempts: %w", n, err))
			env.trackDrop(r)
			env.deadLetter(b.name, r, n, err)
			call.In = nil
			call.Matched = nil
			return true, true, true
		}
		if !env.retryWait(journal.Backoff(policy.Backoff, policy.MaxBackoff, n)) {
			call.In = nil
			call.Matched = nil
			return false, false, false
		}
	}
}

// discardAttempt reclaims a failed attempt's partial emissions. The input
// record survives even when the body re-emitted it — it is the retry's (or
// the dead letter's) subject.
func (b *boxImpl) discardAttempt(call *BoxCall, r *record.Record) {
	em := call.pending[call.base:]
	for _, o := range em {
		if o != r {
			recycle(o)
		}
	}
	clear(em)
	call.pending = call.pending[:call.base]
	call.emitted = 0
}

// finishCall inspects a completed execution's emissions for the input
// record itself (identity-style bodies may re-emit it) and resets the call
// context for the next invocation. The emissions stay in call.pending.
func finishCall(call *BoxCall, r *record.Record) (reemitted bool) {
	for _, o := range call.pending[call.base:] {
		if o == r {
			reemitted = true
		}
	}
	call.In = nil
	call.Matched = nil
	return reemitted
}

// CallBox runs a box body once against input as a detached execution: no
// network, no platform slot, and no flow inheritance — this is how a
// remote worker (internal/wire, cmd/snetd) executes a box call shipped to
// it by a Platform's ExecBox, and the dispatching process applies inheritance
// and type checking when the emissions return. The emitted records are
// returned in emission order and are owned by the caller; input stays the
// caller's (the body treats it read-only, per the box contract). Matching
// local semantics, a body error or panic is returned as err together with
// the records emitted before the failure.
func CallBox(fn BoxFunc, input *record.Record) ([]*record.Record, error) {
	call := &BoxCall{env: detachedEnv, In: input, noInherit: true}
	call.pending = call.pendArr[:0]
	err := runDetached(fn, call)
	var outs []*record.Record
	if len(call.pending) > 0 {
		outs = append(outs, call.pending...)
	}
	clear(call.pending)
	return outs, err
}

// runDetached executes one detached box body, converting a panic into an
// error like the in-network execution closure does.
func runDetached(fn BoxFunc, call *BoxCall) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("box panicked: %v", p)
		}
	}()
	return fn(call)
}

// detachedEnv hosts CallBox executions: options are all defaults (no type
// checking — the dispatching side checks) and errors have nowhere to go,
// they return to the caller instead.
var detachedEnv = &Env{opts: Options{}, errs: &errSink{}}

// MustSig is a convenience for building a single-input-variant signature:
// MustSig(inLabels, outVariants...) ≡ {in...} -> v1 | v2 | ....
func MustSig(in []rtype.Label, outs ...[]rtype.Label) rtype.Signature {
	inT := rtype.NewType(rtype.NewVariant(in...))
	outT := rtype.NewType()
	for _, o := range outs {
		outT.AddVariant(rtype.NewVariant(o...))
	}
	return rtype.NewSignature(inT, outT)
}
