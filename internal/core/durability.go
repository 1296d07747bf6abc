package core

import (
	"fmt"
	"sync"
	"time"

	"snet/internal/dist"
	"snet/internal/journal"
	"snet/internal/record"
)

// Durability configures at-least-once record delivery: every data record
// accepted on Instance.In is appended to a segmented on-disk journal
// (internal/journal) before it enters the network and is acknowledged only
// once its entire derivation tree has completed — every descendant either
// delivered on Out or dropped for a sanctioned reason (no-match, dead
// letter). After a crash, a fresh instance over the same directory replays
// the unacknowledged records with Instance.Recover.
type Durability struct {
	// Dir is the journal directory. Required. A directory belongs to one
	// open Instance at a time: a second instance opened on a live
	// directory recovers the first one's in-flight records and assigns
	// the same delivery ids the first assigns next.
	Dir string
	// Fsync is the flush-to-stable-storage policy; the zero value
	// (FsyncNever) trusts the OS page cache.
	Fsync journal.FsyncPolicy
	// FsyncInterval bounds data-loss exposure under FsyncBatch; zero
	// selects journal.DefaultFsyncInterval.
	FsyncInterval time.Duration
	// SegmentBytes is the rotation threshold; zero selects
	// journal.DefaultSegmentBytes.
	SegmentBytes int
	// FS overrides the journal's disk seam (fault injection, tests); nil
	// selects the real disk rooted at Dir.
	FS journal.FS
	// Clock overrides the journal's time source; the zero value binds to
	// real time.
	Clock journal.Clock
	// Ext encodes field values beyond the wire-native set, exactly as for
	// distribution (dist.ValueCodec). Records whose fields the journal
	// cannot encode flow through the network untracked.
	Ext dist.ValueCodec
}

// BoxRetry configures how box execution failures (body errors and recovered
// panics) are handled.
//
// The zero value keeps the historical behaviour: the failure is reported to
// the error sink and whatever the body emitted before failing flows
// downstream. With Attempts >= 1 the runtime instead discards the failed
// attempt's partial emissions, re-runs the box against the unchanged input
// record up to Attempts times total (waiting Backoff, doubled per failure
// and capped at MaxBackoff, between attempts), and — when every attempt has
// failed — drops the record into the instance's dead-letter queue
// (Instance.DeadLetters) with the exact input record, entity name, attempt
// count and final error.
type BoxRetry struct {
	// Attempts is the total number of times a box execution is tried per
	// record; 0 disables retry and dead-lettering.
	Attempts int
	// Backoff is the wait after the first failed attempt; each further
	// failure doubles it. Zero retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the doubling; zero means uncapped.
	MaxBackoff time.Duration
	// Clock injects the time source for backoff waits (tests drive retries
	// with synthetic timers); the zero value binds to real time.
	Clock journal.Clock
}

// DeadLetter is one record the runtime gave up on: a box exhausted its
// retry budget against it. The record is the exact input of the failed
// executions — the runtime retains ownership, callers must treat it as
// read-only.
type DeadLetter struct {
	// Entity is the box that exhausted its retries.
	Entity string
	// Record is the triggering input record, unmodified.
	Record *record.Record
	// Attempts is how many times the execution was tried.
	Attempts int
	// Err is the final attempt's failure.
	Err error
}

// maxDeadLetters bounds the dead-letter queue like maxRetainedErrors bounds
// the error sink: a poison flood keeps the first letters and counts the
// rest.
const maxDeadLetters = 256

// deadSink accumulates dead letters from concurrently executing boxes.
type deadSink struct {
	mu      sync.Mutex
	letters []DeadLetter
	dropped int
}

// add captures one dead letter, recycling the record when the queue is
// already at capacity (the drop is still counted).
func (s *deadSink) add(dl DeadLetter) {
	s.mu.Lock()
	if len(s.letters) < maxDeadLetters {
		s.letters = append(s.letters, dl)
		s.mu.Unlock()
		return
	}
	s.dropped++
	s.mu.Unlock()
	recycle(dl.Record)
}

// snapshot returns the captured letters (shared records — read-only) and
// the beyond-cap drop count.
func (s *deadSink) snapshot() ([]DeadLetter, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeadLetter, len(s.letters))
	copy(out, s.letters)
	return out, s.dropped
}

// tracker follows each journaled record's derivation tree through the
// network and acknowledges the journal once the tree has completed. The
// invariant is a per-delivery-id reference count: opened at 1 when the
// record enters the network, incremented by fan-out (an entity consuming
// one record and emitting n bumps the count by n-1 — before the emissions
// are released downstream, so the count can never touch zero while
// descendants are in flight), and decremented when a descendant leaves on
// Out or is dropped for a sanctioned reason. Zero means nothing derived
// from the record remains in the network: the journal forgets it.
type tracker struct {
	mu      sync.Mutex
	pending map[uint64]int64
	jnl     *journal.Journal
	errs    *errSink
	acks    []uint64 // reusable zero-crossing batch
}

func newTracker(jnl *journal.Journal, errs *errSink) *tracker {
	return &tracker{pending: make(map[uint64]int64), jnl: jnl, errs: errs}
}

// open starts tracking id at count 1. Re-opening a live id (a replay raced
// into a still-tracked delivery) is ignored — the first tree wins.
func (t *tracker) open(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, live := t.pending[id]; live {
		return false
	}
	t.pending[id] = 1
	return true
}

// fork adjusts id's count by delta, acknowledging the journal when the
// count reaches zero. Untracked ids (untracked records, or counts already
// closed) are ignored.
func (t *tracker) fork(id uint64, delta int64) {
	if delta == 0 {
		return
	}
	t.mu.Lock()
	n, live := t.pending[id]
	if !live {
		t.mu.Unlock()
		return
	}
	n += delta
	if n > 0 {
		t.pending[id] = n
		t.mu.Unlock()
		return
	}
	delete(t.pending, id)
	t.acks = append(t.acks[:0], id)
	t.flushLocked()
}

// AckBatch decrements each id once — the outlet pump's batched completion
// signal (stream.AckSink). Ids whose count reaches zero are acknowledged to
// the journal in one append.
func (t *tracker) AckBatch(ids []uint64) {
	t.mu.Lock()
	t.acks = t.acks[:0]
	for _, id := range ids {
		n, live := t.pending[id]
		if !live {
			continue
		}
		if n--; n > 0 {
			t.pending[id] = n
			continue
		}
		delete(t.pending, id)
		t.acks = append(t.acks, id)
	}
	t.flushLocked()
}

// flushLocked writes the accumulated zero-crossings to the journal. Callers
// hold mu (and release it here): the scratch is detached first so the
// journal write happens outside the tracker lock — completion accounting
// never stalls on disk — without a concurrent caller reusing the slice
// mid-write.
func (t *tracker) flushLocked() {
	acks := t.acks
	t.acks = nil
	t.mu.Unlock()
	if len(acks) > 0 {
		if err := t.jnl.Ack(acks); err != nil {
			t.errs.add(&RuntimeError{Category: ErrCatJournal,
				Err: fmt.Errorf("journal ack: %w", err)})
		}
	}
	t.mu.Lock()
	if t.acks == nil {
		t.acks = acks[:0]
	}
	t.mu.Unlock()
}

// trackFork accounts record r being consumed and n records derived from it
// being released downstream; it must run before the derivations are sent.
// n == 0 is a sanctioned drop.
func (e *Env) trackFork(r *record.Record, n int) {
	if e.track == nil {
		return
	}
	if id := r.Delivery(); id != 0 {
		e.track.fork(id, int64(n-1))
	}
}

// trackDrop accounts a sanctioned drop of r: the record dies here on
// purpose (no-match, dead letter), so replaying it would change nothing.
func (e *Env) trackDrop(r *record.Record) { e.trackFork(r, 0) }

// deadLetter captures a retry-exhausted record; ownership of r moves to the
// dead-letter queue.
func (e *Env) deadLetter(entity string, r *record.Record, attempts int, err error) {
	e.dead.add(DeadLetter{Entity: entity, Record: r, Attempts: attempts, Err: err})
}

// retryWait blocks for one backoff delay on the retry clock, giving up when
// the instance is stopped. A non-positive delay only polls for stop.
func (e *Env) retryWait(d time.Duration) bool {
	if d <= 0 {
		return !e.stopped()
	}
	t := e.opts.BoxRetry.Clock.Timer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-e.done:
		return false
	}
}
