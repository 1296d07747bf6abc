package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"snet/internal/journal"
	"snet/internal/record"
	"snet/internal/stream"
)

// ErrStopped is reported by instances aborted with Instance.Stop (directly
// or via a cancelled RunContext): the network did not run to completion and
// in-flight records were discarded.
var ErrStopped = errors.New("snet: instance stopped")

// Network is an instantiable S-Net: a toplevel entity plus runtime options.
// A Network may be instantiated many times; each Start/Run creates a fresh
// set of goroutines and channels.
type Network struct {
	entity    *Entity
	optimized *Entity
	opts      Options
	optStats  OptStats
}

// NewNetwork wraps an entity into a runnable network. A zero Options value
// selects the LocalPlatform, DefaultBufferSize and the full optimizer
// (see Optimize); OptimizeOff instantiates the tree exactly as built.
func NewNetwork(e *Entity, opts Options) *Network {
	if opts.BufferSize == 0 {
		opts.BufferSize = DefaultBufferSize
	}
	n := &Network{entity: e, optimized: e, opts: opts}
	if opts.Optimize != OptimizeOff {
		n.optimized, n.optStats = Optimize(e)
	}
	return n
}

// Entity returns the underlying toplevel entity, as constructed (not the
// optimized form Start instantiates).
func (n *Network) Entity() *Entity { return n.entity }

// OptStats reports what the instantiation-time optimizer did to this
// network's entity tree. With Options.Optimize set to OptimizeOff the
// zero value is returned (Enabled false).
func (n *Network) OptStats() OptStats { return n.optStats }

// Instance is one running network instantiation. It terminates in one of
// two ways:
//
//   - orderly: close In (or call Close) and drain Out; the shutdown
//     cascades entity by entity and Out closes after the last record;
//   - abort: call Stop; every runtime goroutine — including those blocked
//     sending to an unread Out or waiting for a platform CPU slot — is
//     unwound and reclaimed before Stop returns. Records in flight are
//     discarded.
type Instance struct {
	// In is the network's global input stream. Close it to initiate
	// orderly shutdown. Sending a record transfers its ownership to the
	// network — the runtime recycles records it consumes, so the caller
	// must not touch a record after sending it (see Run). After Stop, a
	// plain send on In can block forever; producers that may race a Stop
	// should use Send or select on Done themselves.
	In chan<- *record.Record
	// Out is the network's global output stream. It is closed after the
	// network has fully drained — or fully unwound, after Stop.
	Out <-chan *record.Record

	env       *Env
	in        chan *record.Record
	optStats  OptStats
	stopOnce  sync.Once
	closeOnce sync.Once
	jnlOnce   sync.Once
	recovered bool
}

// Start instantiates the network and returns its global input and output
// streams. The public In and Out are plain record channels; two boundary
// pumps batch records entering the first link and unbatch records leaving
// the last one, so callers keep the channel API while every interior hop
// runs on the batched transport.
func (n *Network) Start() *Instance {
	env := newEnv(n.opts)
	if d := n.opts.Durability; d != nil {
		// A journal that cannot open degrades durability, not delivery:
		// the failure is reported and the instance runs untracked.
		j, err := journal.Open(journal.Config{
			Dir: d.Dir, FS: d.FS, SegmentBytes: d.SegmentBytes,
			Fsync: d.Fsync, FsyncInterval: d.FsyncInterval,
			Clock: d.Clock, Ext: d.Ext,
		})
		if err != nil {
			env.reportRT("", ErrCatJournal, "", fmt.Errorf("journal open: %w", err))
		} else {
			env.jnl = j
			env.track = newTracker(j, env.errs)
		}
	}
	in := make(chan *record.Record, max(0, n.opts.BufferSize))
	out := make(chan *record.Record, max(0, n.opts.BufferSize))
	first := env.newLink()
	last := env.newLink()
	n.optimized.Spawn(env, first, last)
	// Intake: channel -> first link. The link's own flush policy decides
	// batch boundaries; closing In cascades into the network. With a
	// journal, each accepted data record is logged and stamped with its
	// delivery id before it enters the network — a record arriving with a
	// delivery id already set is a replay (Recover) and is tracked without
	// being re-journaled. Records the journal cannot encode (opaque field
	// values without an Ext codec) flow through untracked.
	env.start(func() {
		defer env.closeLink(first)
		for {
			var r *record.Record
			var ok bool
			select {
			case r, ok = <-in:
			case <-env.done:
				return
			}
			if !ok {
				return
			}
			if env.jnl != nil && r.IsData() {
				if id := r.Delivery(); id != 0 {
					env.track.open(id)
				} else if env.jnl.Marshalable(r) {
					id, err := env.jnl.Append("", r)
					if err != nil {
						env.reportRT("", ErrCatJournal, r.String(),
							fmt.Errorf("journal append: %w", err))
					} else {
						r.SetDelivery(id)
						env.track.open(id)
					}
				}
			}
			if !first.Send(r, env.done) {
				return
			}
		}
	})
	// Outlet: last link -> channel. Records are delivered one at a time
	// (the public contract), whole batches are drained per wakeup. The
	// hand-off to Out is the completion boundary of a tracked delivery:
	// each record's id is acknowledged — batched, one tracker call per
	// link batch — after the record is in the caller's channel.
	var sink stream.AckSink
	if env.track != nil {
		sink = env.track
	}
	env.start(func() {
		defer close(out)
		acker := stream.NewAcker(sink)
		for {
			b, ok := last.RecvBatch(env.done)
			if !ok {
				return
			}
			for _, r := range b.Recs {
				// Read the id before the send: the channel hand-off
				// transfers ownership, the receiver may recycle at once.
				id := r.Delivery()
				select {
				case out <- r: // buffered fast path
				default:
					select {
					case out <- r:
					case <-env.done:
						return
					}
				}
				acker.Observe(id)
			}
			acker.Flush()
			stream.FreeBatch(b)
		}
	})
	return &Instance{In: in, Out: out, env: env, in: in, optStats: n.optStats}
}

// LinkStats is a snapshot of one stream link's traffic counters: records
// and batches sent, current queued depth, and the flush-cause breakdown.
type LinkStats = stream.Stats

// LinkStats returns a snapshot of every stream link in the instance, in
// creation order (links appear as their entities are instantiated,
// including dynamically unfolded star stages and split replicas). Summing
// SentBatches against SentRecords gives the batching amortization the
// instance achieved; Depth localizes where records are queued.
//
// A long-running instance keeps creating links (star unfoldings,
// single-shot split replicas), so links whose receiver has observed
// end-of-stream — their counters are final — are periodically folded
// into one cumulative entry to bound memory; when any have been folded,
// that aggregate is the first element of the result.
func (i *Instance) LinkStats() []LinkStats { return i.env.links.snapshot() }

// OptStats reports what the instantiation-time optimizer did to the
// network this instance was started from (see Network.OptStats).
func (i *Instance) OptStats() OptStats { return i.optStats }

// Err returns all runtime errors reported so far, joined, or nil. After
// Stop the result includes ErrStopped.
func (i *Instance) Err() error {
	return errors.Join(i.env.errs.all()...)
}

// Errs returns the structured view of the instance's runtime errors: each
// retained error with the reporting entity, a failure category and the
// involved record's shape, plus per-category counts of errors dropped
// beyond the retention cap (see ErrorReport for the retention contract).
func (i *Instance) Errs() ErrorReport { return i.env.errs.report() }

// DeadLetters returns the records the runtime has given up on under
// Options.BoxRetry: for each, the exact input record of the failed box
// executions, the box's name, the attempt count and the final error. The
// queue keeps the first maxDeadLetters letters; dropped is how many more
// were discarded beyond that cap. The records stay owned by the instance —
// treat them as read-only.
func (i *Instance) DeadLetters() (letters []DeadLetter, dropped int) {
	return i.env.dead.snapshot()
}

// Recover replays the journal's unacknowledged records — deliveries whose
// derivation trees had not completed when the previous instance died —
// into this instance's input, in original acceptance order. dir must match
// Options.Durability.Dir (a cross-check that the caller is replaying the
// journal this instance actually opened). Replayed records keep their
// original delivery ids: they are tracked without being re-journaled, and
// the journal's own replay already deduplicated by id, so a record is
// re-offered at most once per restart.
//
// Call Recover once, after Start and before feeding new input, so replayed
// records precede fresh ones. It returns how many records were re-offered.
func (i *Instance) Recover(dir string) (int, error) {
	if i.env.jnl == nil {
		return 0, errors.New("snet: Recover: instance has no journal (Options.Durability unset or open failed)")
	}
	if d := i.env.opts.Durability.Dir; dir != d {
		return 0, fmt.Errorf("snet: Recover: dir %q does not match the instance journal dir %q", dir, d)
	}
	if i.recovered {
		return 0, errors.New("snet: Recover: already recovered")
	}
	i.recovered = true
	n := 0
	for _, e := range i.env.jnl.Recovered() {
		e.Rec.SetDelivery(e.ID)
		if !i.Send(e.Rec) {
			return n, ErrStopped
		}
		n++
	}
	return n, nil
}

// closeJournal releases the ingress journal once, reporting a failed close
// to the error sink. It must only run after every runtime goroutine has
// finished (no more appends or acks in flight).
func (i *Instance) closeJournal() {
	if i.env.jnl == nil {
		return
	}
	i.jnlOnce.Do(func() {
		if err := i.env.jnl.Close(); err != nil {
			i.env.errs.add(&RuntimeError{Category: ErrCatJournal,
				Err: fmt.Errorf("journal close: %w", err)})
		}
	})
}

// ErrCount returns the number of runtime errors reported so far, including
// those beyond the sink's retention cap (Err keeps the first
// maxRetainedErrors plus a dropped-count summary).
func (i *Instance) ErrCount() int { return i.env.errs.count() }

// Done returns a channel closed when the instance is stopped. Producers
// feeding In from their own goroutines select on it (or use Send) so a
// Stop cannot strand them mid-send.
func (i *Instance) Done() <-chan struct{} { return i.env.done }

// Send delivers a record to In unless the instance has been stopped; it
// reports whether the record was accepted. Unlike a plain channel send it
// cannot block past a Stop, and once Stop has returned it always refuses.
// Send guards against Stop only: Close (and closing In by hand) follows
// the usual Go channel rule that the input may only be closed once all
// producers have finished — a Send racing a Close panics, exactly like a
// raw send would.
func (i *Instance) Send(r *record.Record) bool {
	if i.env.stopped() {
		return false
	}
	select {
	case i.in <- r:
		return true
	default:
	}
	select {
	case i.in <- r:
		return true
	case <-i.env.done:
		return false
	}
}

// CloseIn closes the instance's input stream, idempotently, initiating
// orderly shutdown; Out closes once the network has drained. Use it when
// the caller collects Out itself and only then calls Close (which becomes
// the completion barrier — its own drain finds Out already empty). The
// channel rules still apply: every producer must have stopped sending.
func (i *Instance) CloseIn() {
	i.closeOnce.Do(func() { close(i.in) })
}

// Stop aborts the instance: all entity goroutines — wherever they are
// blocked — unwind, platform CPU slots being waited on are released, Out is
// closed and drained, and every runtime goroutine is reclaimed before Stop
// returns. Records still in flight are discarded, not recycled; ownership
// of records already received from Out stays with the caller. Stop is
// idempotent and always returns ErrStopped.
func (i *Instance) Stop() error {
	i.stopOnce.Do(func() {
		i.env.errs.markStopped()
		close(i.env.done)
	})
	i.env.wg.Wait()
	// The cascade has closed Out; empty whatever it still buffers so the
	// instance leaves no records behind even when nobody was reading.
	//lint:reason Out is already closed once wg.Wait returns, so this drain cannot block
	for r := range i.Out {
		recycle(r)
	}
	// Discarded in-flight records were never acknowledged — that is the
	// point: a successor instance over the same directory replays them.
	i.closeJournal()
	return ErrStopped
}

// Close shuts the instance down in an orderly fashion: it closes In, drains
// (and recycles) any output the caller has not consumed, waits for every
// runtime goroutine to finish and returns the instance's accumulated error.
// Callers that want the output should drain Out themselves before calling
// Close. Close must not be combined with closing In by hand, and — like
// closing any Go channel — must only be called once every producer has
// stopped sending (use Stop to abort past live producers). It is safe to
// call after Stop, and calling Stop after Close is safe too.
func (i *Instance) Close() error {
	i.closeOnce.Do(func() { close(i.in) })
	//lint:reason orderly-shutdown drain: In is closed, so the cascade closes Out in finite time
	for r := range i.Out {
		recycle(r)
	}
	i.env.wg.Wait()
	i.closeJournal()
	return i.Err()
}

// Run feeds the input records into a fresh instantiation of the network,
// closes the input, and collects the complete output. It returns the
// outputs in arrival order together with any runtime errors.
//
// Run takes ownership of the input records — the stream single-owner rule.
// The runtime recycles records it consumes (box triggers, filter inputs,
// synchrocell merges), so a caller must not reuse records after feeding
// them in; build fresh ones per run, or draw them from a record.Pool and
// return the outputs to it. Ownership of the returned records is the
// caller's.
func (n *Network) Run(inputs ...*record.Record) ([]*record.Record, error) {
	return n.RunContext(context.Background(), inputs...)
}

// RunContext is Run with a lifetime: when ctx is cancelled before the
// network has drained, the instance is stopped, all goroutines are
// reclaimed, and the records produced so far are returned together with an
// error wrapping ctx's cause and ErrStopped.
func (n *Network) RunContext(ctx context.Context, inputs ...*record.Record) ([]*record.Record, error) {
	inst := n.Start()
	unwatch := context.AfterFunc(ctx, func() { inst.Stop() })
	defer unwatch()
	go func() {
		for _, r := range inputs {
			if !inst.Send(r) {
				return
			}
		}
		inst.closeOnce.Do(func() { close(inst.in) })
	}()
	var outs []*record.Record
	//lint:reason collection drain: the feeder closes In (or ctx cancellation stops the instance), so the cascade closes Out in finite time
	for r := range inst.Out {
		outs = append(outs, r)
	}
	inst.env.wg.Wait()
	inst.closeJournal()
	if ctx.Err() != nil {
		return outs, errors.Join(ctx.Err(), inst.Err())
	}
	return outs, inst.Err()
}
