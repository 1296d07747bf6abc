// Package stream implements the batched record transport that connects
// S-Net entities. A Link replaces the raw one-record-per-channel-op handoff
// (two scheduler wakeups per hop) with reusable batches of records: senders
// accumulate records into a pooled pending batch and hand whole batches to
// the receiver, so the per-record coordination cost — channel operation,
// goroutine wakeup, cache-line bounce — is amortized over the batch.
//
// # Flush policy
//
// A pending batch is flushed to the receiver when any of these fires:
//
//   - fill-up: the batch has reached the configured batch size;
//   - downstream-idle: the receiver is blocked waiting for records, so
//     holding the batch back would add pure latency for no throughput win;
//   - close: Close flushes whatever is pending before closing the link.
//
// In addition, a receiver that finds the batch queue empty steals the
// sender's pending partial batch directly (under the link lock) before
// blocking. Stealing is what makes batching deadlock-free: a record parked
// in a partial batch whose sender has gone on to block elsewhere — on its
// own input, on a platform CPU slot — is still reachable by the consumer
// that needs it to make progress, with FIFO order preserved. It also bounds
// how long a record lingers in a partial batch without a clock: a busy
// receiver comes back for it the moment its queue runs dry, and an idle one
// takes it at once.
//
// # Ownership and lifecycle
//
// Links follow the channel discipline of the runtime they replace: any
// number of senders, one receiver. A link counts its senders: it starts with
// one, AddSender registers more, every sender closes once when it has
// finished, and the last close ends the stream — so producers that share an
// output (choice branches, split replicas, star taps) write straight into it
// with no relay in between. Every potentially blocking operation takes a done channel and
// gives up (returning false) when it closes, which is how Instance.Stop
// unwinds a network mid-batch. Batch slices are pooled and recycled by the
// receiver; records themselves are owned by whoever holds them, exactly as
// on a raw channel.
//
//snet:hot
package stream

import (
	"sync"
	"sync/atomic"

	"snet/internal/record"
)

// DefaultBatchSize is the records-per-batch ceiling when Config leaves
// BatchSize zero (Config.Normalize).
const DefaultBatchSize = 16

// Config fixes a Link's batching behavior at creation time.
type Config struct {
	// Capacity is the link's backpressure bound in records: once roughly
	// this many records are queued between senders and the receiver,
	// senders block. Zero or negative selects a fully synchronous link
	// (batch size one, unbuffered handoff).
	Capacity int
	// BatchSize is the maximum records per batch. Zero selects
	// DefaultBatchSize; values are clamped to Capacity (batching more
	// than the link may buffer would be meaningless). One disables
	// batching.
	BatchSize int
}

// Normalize resolves zero values to defaults and returns the effective
// configuration.
func (c Config) Normalize() Config {
	if c.Capacity <= 0 {
		c.Capacity = 0
		c.BatchSize = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	if c.Capacity > 0 && c.BatchSize > c.Capacity {
		c.BatchSize = c.Capacity
	}
	return c
}

// Batch is one unit of transport: a reusable slice of records. Batches
// travel between links (a relay receives a batch from one link and
// forwards it unchanged into the next), so they are pooled package-wide
// as stable heap objects — recycling one never re-boxes a slice header.
type Batch struct {
	// Recs holds the batch's records in stream order. Consumers iterate
	// it; producers must not touch it after handing the batch over.
	Recs []*record.Record
}

// batchPool recycles Batch containers across all links.
var batchPool = sync.Pool{New: func() any {
	return &Batch{Recs: make([]*record.Record, 0, DefaultBatchSize)}
}}

// Link is one directed stream between entities: multiple senders, a single
// receiver, records delivered in batches. The zero value is not usable;
// construct with NewLink.
type Link struct {
	batch int // max records per batch

	ch chan *Batch // the batch queue

	mu        sync.Mutex
	flushCond sync.Cond // signals the flush slot free (see awaitFlushSlot)
	pend      *Batch    // accumulating batch (nil when empty)
	flushing  int       // batches detached but not yet in ch
	rwaiting  bool      // receiver is blocked waiting for a batch
	senders   int       // registered senders that have not closed yet
	closed    bool

	// Sender-side counters, guarded by mu (the send path holds it anyway).
	sent        int64 // records accepted by Send/SendMany/SendBatch
	sentBatches int64 // batches delivered to the queue (incl. steals)
	fullFlushes int64
	idleFlushes int64
	steals      int64

	// Receiver-side state: the single-receiver contract makes these
	// exclusively the receiver's.
	rbatch *Batch
	rpos   int

	recvd     atomic.Int64 // records handed to the receiver (read by Stats)
	exhausted atomic.Bool  // receiver saw the close; counters are final
}

// Exhausted reports whether the receiver has observed end-of-stream: the
// link is closed and fully drained, so its counters are final. Registries
// tracking many short-lived links (star unfoldings, split replicas)
// use it to fold finished links into an aggregate instead of pinning them
// forever.
func (l *Link) Exhausted() bool { return l.exhausted.Load() }

// NewLink creates a link with the given configuration (normalized first).
func NewLink(cfg Config) *Link {
	l := &Link{}
	l.Init(cfg)
	return l
}

// Init prepares a zero Link with the given configuration (normalized
// first). Callers that create links in bulk — one per entity hop, at
// every network instantiation and star unfolding — allocate them in slabs
// and Init each slot, so a link costs one channel allocation, not two
// heap objects.
func (l *Link) Init(cfg Config) {
	cfg = cfg.Normalize()
	chCap := 0
	if cfg.Capacity > 0 {
		chCap = cfg.Capacity / cfg.BatchSize
		if chCap < 1 {
			chCap = 1
		}
	}
	l.batch = cfg.BatchSize
	l.ch = make(chan *Batch, chCap)
	l.flushCond.L = &l.mu
	l.senders = 1
}

// AddSender registers n more senders, each of which must Close once. Only a
// registered sender that has not closed yet may call it, so the count cannot
// reach zero underneath it.
func (l *Link) AddSender(n int) {
	l.mu.Lock()
	l.senders += n
	l.mu.Unlock()
}

// BatchSize returns the link's effective records-per-batch ceiling.
func (l *Link) BatchSize() int { return l.batch }

// getBatch draws an empty batch with at least the link's batch capacity
// from the shared pool.
func (l *Link) getBatch() *Batch {
	b := batchPool.Get().(*Batch)
	if cap(b.Recs) < l.batch {
		b.Recs = make([]*record.Record, 0, l.batch)
	}
	return b
}

// FreeBatch returns a fully consumed batch to the shared pool. Only the
// batch's current owner may free it; record pointers are cleared so the
// pool retains no references.
func FreeBatch(b *Batch) {
	clear(b.Recs)
	b.Recs = b.Recs[:0]
	batchPool.Put(b)
}

// Send delivers one record, blocking when the link is at capacity. It
// reports false — the record was not delivered and the caller must unwind —
// when done closes first.
func (l *Link) Send(r *record.Record, done <-chan struct{}) bool {
	l.mu.Lock()
	if l.pend == nil {
		l.pend = l.getBatch()
	}
	l.pend.Recs = append(l.pend.Recs, r)
	cause := l.flushCause()
	if cause == nil {
		l.sent++
		l.mu.Unlock()
		return true
	}
	ok := l.flushPend(done, cause)
	if ok {
		l.sent++
	}
	l.mu.Unlock()
	return ok
}

// SendMany delivers rs in order under a single lock acquisition, flushing
// full batches as they fill. The slice itself stays the caller's (records
// are appended into the link's own batches), so reusable emission buffers —
// a box's pending outputs — can be handed over without copying ownership.
// False means done closed mid-delivery; a prefix of rs may have been
// delivered.
func (l *Link) SendMany(rs []*record.Record, done <-chan struct{}) bool {
	if len(rs) == 0 {
		return true
	}
	l.mu.Lock()
	for i, r := range rs {
		if l.pend == nil {
			l.pend = l.getBatch()
		}
		l.pend.Recs = append(l.pend.Recs, r)
		if len(l.pend.Recs) >= l.batch {
			if !l.flushPend(done, &l.fullFlushes) {
				l.mu.Unlock()
				return false
			}
			l.sent += int64(i + 1)
			rs = rs[i+1:]
			l.mu.Unlock()
			// Re-enter for the remainder: flushPend dropped the lock
			// mid-send, so the loop state is stale.
			return l.SendMany(rs, done)
		}
	}
	if l.pend != nil && len(l.pend.Recs) > 0 {
		if cause := l.flushCause(); cause != nil {
			if !l.flushPend(done, cause) {
				l.mu.Unlock()
				return false
			}
		}
	}
	l.sent += int64(len(rs))
	l.mu.Unlock()
	return true
}

// SendBatch forwards a whole batch, transferring ownership of the slice to
// the link (the final receiver recycles it). Relays use it to move batches
// between links without re-accumulating them record by record. Any pending
// partial batch is flushed first so order is preserved. False means done
// closed before delivery; ownership of undelivered records stays with the
// caller.
func (l *Link) SendBatch(b *Batch, done <-chan struct{}) bool {
	if len(b.Recs) == 0 {
		FreeBatch(b)
		return true
	}
	// The batch belongs to the receiver the moment deliver hands it over
	// (it may already be drained and recycled by the time deliver
	// returns), so take its size now.
	n := int64(len(b.Recs))
	l.mu.Lock()
	// Order: everything pending must be queued ahead of b, and the flush
	// slot must be free before b goes out. Both waits drop the lock, so
	// re-check until an iteration finds nothing pending with the slot
	// free. The pre-flush is credited to IdleFlushes by convention (see
	// Stats); it exists to preserve order, not because the receiver is
	// known idle.
	for {
		if l.pend != nil && len(l.pend.Recs) > 0 {
			if !l.flushPend(done, &l.idleFlushes) {
				l.mu.Unlock()
				return false
			}
			continue
		}
		l.awaitFlushSlot()
		if l.pend == nil || len(l.pend.Recs) == 0 {
			break
		}
	}
	ok := l.deliver(b, done)
	if ok {
		l.sent += n
		l.sentBatches++
	}
	l.mu.Unlock()
	return ok
}

// flushCause decides whether the pending batch must be flushed now and
// returns the counter to credit, or nil. Callers hold mu.
func (l *Link) flushCause() *int64 {
	switch {
	case len(l.pend.Recs) >= l.batch:
		return &l.fullFlushes
	case l.rwaiting:
		return &l.idleFlushes
	}
	return nil
}

// awaitFlushSlot blocks — releasing mu while waiting — until no flush is
// in flight. Flushes must be fully serialized per link: a detached batch
// whose push is preempted between dropping mu and the channel send would
// otherwise race a newer batch (possibly carrying the same sender's later
// records, since pend is shared) into the queue ahead of it, breaking
// per-sender FIFO on multi-sender links. The in-flight push always
// completes (its blocking send selects on done) and signals on its way
// out. Callers hold mu.
func (l *Link) awaitFlushSlot() {
	for l.flushing > 0 {
		l.flushCond.Wait()
	}
}

// flushPend waits for the flush slot, then detaches the pending batch and
// delivers it. While waiting, the pend may be taken by the receiver (a
// steal) or by another sender's flush — both mean the records this caller
// wanted flushed are already on their way, so it succeeds vacuously.
// Callers hold mu; the lock is dropped while waiting and during the send,
// so callers must not rely on any other link state across the call.
// Reports false when done closed before delivery.
func (l *Link) flushPend(done <-chan struct{}, cause *int64) bool {
	l.awaitFlushSlot()
	if l.pend == nil || len(l.pend.Recs) == 0 {
		return true
	}
	b := l.pend
	l.pend = nil
	ok := l.deliver(b, done)
	if ok {
		*cause++
		l.sentBatches++
	}
	return ok
}

// deliver sends one detached batch into the queue, then hands over any
// pending batch a blocked receiver is waiting for. Callers hold mu with
// the flush slot free; the lock is dropped during each send.
//
// The flushing counter keeps the receiver's steal path honest: while a
// detached batch is in flight the receiver must wait for it (stealing
// newer pending records would reorder the stream). That refusal opens a
// window — the receiver can block after skipping the steal while another
// sender's records sit in pend with no further send coming — so the
// completion of the in-flight flush is responsible for the wakeup: once
// no flush is in flight, a waiting receiver gets whatever accumulated.
func (l *Link) deliver(b *Batch, done <-chan struct{}) bool {
	ok := l.push(b, done)
	for ok && l.flushing == 0 && l.rwaiting && l.pend != nil && len(l.pend.Recs) > 0 {
		nb := l.pend
		l.pend = nil
		if ok = l.push(nb, done); ok {
			l.idleFlushes++
			l.sentBatches++
		}
	}
	return ok
}

// push moves one detached batch into the queue, dropping mu for the send,
// and signals the flush slot free again. Callers hold mu with the flush
// slot free (flushing rises to at most one).
func (l *Link) push(b *Batch, done <-chan struct{}) bool {
	l.flushing++
	l.rwaiting = false // the arriving batch will wake the receiver
	l.mu.Unlock()
	ok := true
	select {
	case l.ch <- b:
	default:
		select {
		case l.ch <- b:
		case <-done:
			ok = false
		}
	}
	l.mu.Lock()
	l.flushing--
	// Broadcast, not Signal: several senders can be waiting on the slot
	// while one shared pend holds all their records. The first waiter to
	// run flushes it and the rest find nothing to do — but a single
	// Signal would wake only one, and a waiter that returns vacuously
	// does not push and so would never pass the wakeup on.
	l.flushCond.Broadcast()
	return ok
}

// Close signs one sender off: it flushes any pending records, and the last
// registered sender's close ends the stream — the same discipline as closing
// a Go channel, counted. Each sender closes once; a close after the stream
// has ended does nothing. When done closes before the flush lands, the
// pending records are dropped (the instance is being aborted) and the final
// close ends the stream anyway so the receiver unblocks.
func (l *Link) Close(done <-chan struct{}) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if l.pend != nil && len(l.pend.Recs) > 0 {
		l.flushPend(done, &l.idleFlushes)
	}
	// flushPend may have dropped the lock; the count is read after it.
	if l.senders--; l.senders > 0 {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	close(l.ch)
}

// Recv returns the next record, blocking until one is available. ok is
// false when the link is closed and drained, or when done closes first.
// Only the link's single receiver may call it.
func (l *Link) Recv(done <-chan struct{}) (r *record.Record, ok bool) {
	if l.rbatch == nil {
		b, ok := l.nextBatch(done)
		if !ok {
			return nil, false
		}
		l.rbatch, l.rpos = b, 0
	}
	r = l.rbatch.Recs[l.rpos]
	l.rpos++
	if l.rpos == len(l.rbatch.Recs) {
		FreeBatch(l.rbatch)
		l.rbatch = nil
	}
	return r, true
}

// RecvBatch returns the next whole batch, transferring ownership of the
// slice to the caller (forward it with SendBatch or recycle it with
// FreeBatch after draining). Relays use it to move batches across a link
// boundary in one operation. ok is false when the link is closed and
// drained, or when done closes first.
func (l *Link) RecvBatch(done <-chan struct{}) (b *Batch, ok bool) {
	if l.rbatch != nil {
		// A partially consumed batch: hand over the remainder, compacted
		// to the front so the eventual FreeBatch clears everything.
		b = l.rbatch
		n := copy(b.Recs, b.Recs[l.rpos:])
		clear(b.Recs[n:])
		b.Recs = b.Recs[:n]
		l.rbatch = nil
		return b, true
	}
	return l.nextBatch(done)
}

// nextBatch obtains the next batch from the queue, stealing the senders'
// pending partial batch when the queue is empty, and blocking — registered
// as idle, so the next send flushes immediately — when there is nothing to
// steal either.
func (l *Link) nextBatch(done <-chan struct{}) (*Batch, bool) {
	// Prompt-stop poll: a stopped instance must not keep consuming
	// backlog until the next blocking point.
	select {
	case <-done:
		return nil, false
	default:
	}
	// Fast path: a batch is already queued.
	select {
	case b, ok := <-l.ch:
		if !ok {
			l.exhausted.Store(true)
			return nil, false
		}
		l.recvd.Add(int64(len(b.Recs)))
		return b, true
	default:
	}
	l.mu.Lock()
	// Re-check under the lock: a sender may have flushed between the poll
	// above and the lock acquisition, and order requires draining the
	// queue before stealing.
	select {
	case b, ok := <-l.ch:
		l.mu.Unlock()
		if !ok {
			l.exhausted.Store(true)
			return nil, false
		}
		l.recvd.Add(int64(len(b.Recs)))
		return b, true
	default:
	}
	if l.flushing == 0 && l.pend != nil && len(l.pend.Recs) > 0 {
		// Steal: take the partial batch directly. No batch is in flight
		// and the queue is empty, so this preserves FIFO order.
		b := l.pend
		l.pend = nil
		l.steals++
		l.sentBatches++
		l.recvd.Add(int64(len(b.Recs)))
		l.mu.Unlock()
		return b, true
	}
	// Nothing to take: block, flagged as idle so the very next send (or
	// the completion of an in-flight flush) delivers without batching
	// delay.
	l.rwaiting = true
	l.mu.Unlock()
	select {
	case b, ok := <-l.ch:
		if !ok {
			l.exhausted.Store(true)
			return nil, false
		}
		l.recvd.Add(int64(len(b.Recs)))
		return b, true
	case <-done:
		return nil, false
	}
}

// Stats is a snapshot of one link's traffic counters.
type Stats struct {
	// SentRecords counts records accepted by the send side; RecvRecords
	// counts records handed to the receiver, credited when the receiver
	// takes a whole batch. Depth is their difference: the records queued
	// in the link — the batch queue plus any pending partial batch, but
	// not the up-to-BatchSize records of a batch the receiver has taken
	// and is still draining.
	SentRecords, RecvRecords, Depth int64
	// SentBatches counts batches delivered to the receiver; the average
	// batch size RecvRecords/SentBatches is the amortization factor the
	// link achieved.
	SentBatches int64
	// Flush-cause breakdown: batches flushed because they filled up or
	// because the receiver was idle. TimerFlushes is always zero: links
	// have no timer flush, and the field stays for code that reads the
	// whole breakdown. Steals counts partial batches the receiver took
	// directly. IdleFlushes is overloaded by
	// convention with the flushes that exist for ordering rather than
	// latency: the close flush and SendBatch's order-preserving
	// pre-flush of the pending batch are credited here whether or not
	// the receiver was idle. Whole batches forwarded by relays via
	// SendBatch count in SentBatches without a flush cause (nothing was
	// pending to flush).
	FullFlushes, IdleFlushes, TimerFlushes, Steals int64
}

// Stats snapshots the link's counters. It is safe to call concurrently
// with traffic; receiver-side counts may lag sender-side counts by the
// batch in flight.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		SentRecords: l.sent,
		SentBatches: l.sentBatches,
		FullFlushes: l.fullFlushes,
		IdleFlushes: l.idleFlushes,
		Steals:      l.steals,
	}
	l.mu.Unlock()
	s.RecvRecords = l.recvd.Load()
	s.Depth = s.SentRecords - s.RecvRecords
	if s.Depth < 0 {
		s.Depth = 0
	}
	return s
}
