// Package dist implements the Distributed S-Net platform: an abstract
// cluster of compute nodes underneath the placement combinators "@" and
// "!@". The paper maps one S-Net network onto a multi-node installation by
// annotating subnetworks with node indices; this package supplies the
// resource model those annotations are measured against.
//
// A Cluster has a fixed number of nodes, each with a bounded number of CPU
// slots. Box executions dispatched to a node (core.Platform.ExecBox) are gated
// on the node's slots, so at most cpusPerNode box calls run concurrently per
// node — the "two solvers per dual-core node" regime of the paper's
// Section V becomes an enforced bound rather than a convention. Every record
// that crosses between nodes (core.Platform.Transfer) is counted and
// byte-sized with the record wire codec (see codec.go), which follows the
// mpi.ByteSizer conventions so that the S-Net networks and the MPI baseline
// (internal/mpiray) account traffic identically.
//
// # Scheduling and work stealing
//
// Each node keeps a FIFO deque of executions waiting for one of its CPU
// slots. Exec and a non-stealable ExecBox queue strictly on their home node
// — the static regime of the paper, where placement fixed at split time
// leaves a skewed workload queued behind one node's CPUs. A stealable
// ExecBox relaxes it: a queued execution may be claimed by another node
// that runs out of local work, which models migrating the triggering input
// record across the interconnect — the steal is counted (Stats.Steals,
// Stats.Migrated), the input is byte-sized against the donor→thief link
// codec, and the configured transfer-cost model is charged for the move.
// Loads exposes the per-node slot occupancy plus queue depth that
// load-aware placement policies (core.LeastLoaded) feed on.
//
// An optional transfer-cost model (SetTransferCost) charges a per-hop
// latency plus a bandwidth-proportional delay for every cross-node record,
// letting benchmarks explore communication-bound regimes beyond the paper's
// compute-bound figures.
//
//snet:hot
package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snet/internal/record"
)

// Stats is a snapshot of a cluster's accounting counters.
type Stats struct {
	// Execs counts box executions per node — the node that ran the
	// execution, which for a stolen execution is the thief, not the home
	// node it was dispatched to.
	Execs []int64
	// Busy is the accumulated box-execution wall time per node.
	Busy []time.Duration
	// Transfers counts cross-node record hops. A batch transfer counts
	// one hop per record it carries, so Transfers is comparable across
	// batched and unbatched runs.
	Transfers int64
	// Batches counts cross-node wire messages: one per TransferBatch
	// call and one per single-record Transfer. Transfers/Batches is the
	// average number of records per wire message.
	Batches int64
	// Bytes is the accumulated wire size of everything transferred;
	// batched records share one message frame (see Codec.AccountBatch),
	// and the inputs of stolen executions are included.
	Bytes int64
	// Steals counts executions queued on one node but claimed and run by
	// another (stealable executions only; Exec never migrates).
	Steals int64
	// Migrated counts the input records that crossed nodes because their
	// execution was stolen. Each such record is byte-sized against the
	// donor→thief link codec and charged the transfer-cost model, exactly
	// like a stream hop — and like a stream hop it is also counted in
	// Transfers, Batches (one message per migration) and Bytes, so the
	// per-message and per-hop ratios stay meaningful with stealing on.
	Migrated int64
}

// Cluster is an abstract multi-node compute platform: bounded CPU slots per
// node, per-node work queues with optional cross-node stealing, and
// transfer accounting. It implements core.Platform, running every box
// execution in this process. All methods are safe for concurrent use; a
// Cluster may be shared between consecutive network runs (the counters then
// accumulate) and between an S-Net network and an MPI program competing for
// the same resources.
type Cluster struct {
	cpus    int
	execs   []atomic.Int64
	busy    []atomic.Int64 // nanoseconds
	trans   atomic.Int64
	batches atomic.Int64
	bytes   atomic.Int64
	steals  atomic.Int64
	migs    atomic.Int64

	// The slot scheduler: free CPU slots and the FIFO queue of waiting
	// executions, per node. A released slot first serves its own node's
	// queue; when that is empty and stealable work is queued elsewhere,
	// it claims the oldest stealable waiter of the longest queue.
	mu     sync.Mutex
	free   []int
	queues [][]*waiter
	nsteal int // stealable waiters across all queues (fast no-steal skip)

	// links holds one wire codec per directed node pair, indexed
	// from*nodes+to: transfers are sized against the link's negotiated
	// label table, so a label name crosses each link once and steady-state
	// records are charged interned-symbol prices (see codec.go). The
	// codecs live in one flat allocation; the zero Codec is ready to use.
	links []Codec

	// Transfer-cost model, fixed representation: latency per hop plus
	// nanoseconds per byte. Both zero by default (accounting only).
	latency  atomic.Int64 // ns per hop
	perByte  atomic.Int64 // ns per byte, scaled by perByteScale
	costLive atomic.Bool  // fast-path skip when no cost is configured
}

// waiter is one execution queued for a CPU slot. The grant channel
// (buffered, so granting never blocks) carries the node whose slot was
// granted — the home node, or the thief's for a stolen execution (the
// waiting goroutine itself charges the migration after the grant).
type waiter struct {
	home      int
	stealable bool
	grant     chan int
}

// perByteScale fixes the per-byte delay representation at 1/1024 ns
// resolution, so bandwidths well above 1 GB/s remain representable.
const perByteScale = 1024

// NewCluster creates a cluster of `nodes` abstract nodes with `cpusPerNode`
// CPU slots each. It panics on non-positive arguments, mirroring an
// impossible machine configuration.
func NewCluster(nodes, cpusPerNode int) *Cluster {
	if nodes <= 0 || cpusPerNode <= 0 {
		panic(fmt.Sprintf("dist: cluster %d nodes x %d cpus", nodes, cpusPerNode))
	}
	c := &Cluster{
		cpus:   cpusPerNode,
		execs:  make([]atomic.Int64, nodes),
		busy:   make([]atomic.Int64, nodes),
		free:   make([]int, nodes),
		queues: make([][]*waiter, nodes),
		links:  make([]Codec, nodes*nodes),
	}
	for i := range c.free {
		c.free[i] = cpusPerNode
	}
	return c
}

// Nodes returns the number of cluster nodes.
func (c *Cluster) Nodes() int { return len(c.free) }

// CPUsPerNode returns the CPU slots per node.
func (c *Cluster) CPUsPerNode() int { return c.cpus }

// node maps an arbitrary node index onto a real node, modulo the cluster
// size. The placement combinators already normalize their indices; the
// modulo here additionally covers direct callers such as the MPI baseline's
// rank→node gating and keeps out-of-range indices from panicking.
func (c *Cluster) node(n int) int {
	size := len(c.free)
	return ((n % size) + size) % size
}

// acquire obtains a CPU slot for an execution homed on node n, blocking in
// the node's FIFO queue when all slots are busy. It returns the node whose
// slot was granted — n itself unless the waiter was stealable and another
// node claimed it first — and false (without a slot) when cancel fired
// before a grant.
func (c *Cluster) acquire(n int, cancel <-chan struct{}, stealable bool) (int, bool) {
	c.mu.Lock()
	if c.free[n] > 0 && len(c.queues[n]) == 0 {
		c.free[n]--
		c.mu.Unlock()
		return n, true
	}
	if stealable {
		// The home node is saturated; rather than queue behind it, claim
		// an idle slot elsewhere right away (the dispatch-time half of
		// stealing — releaseSlot covers nodes that free up later).
		size := len(c.free)
		for off := 1; off < size; off++ {
			m := (n + off) % size
			if c.free[m] > 0 && len(c.queues[m]) == 0 {
				c.free[m]--
				c.mu.Unlock()
				return m, true
			}
		}
	}
	w := &waiter{home: n, stealable: stealable, grant: make(chan int, 1)}
	c.queues[n] = append(c.queues[n], w)
	if stealable {
		c.nsteal++
	}
	c.mu.Unlock()
	if cancel == nil {
		return <-w.grant, true
	}
	select {
	case got := <-w.grant:
		return got, true
	case <-cancel:
	}
	c.mu.Lock()
	if c.unqueue(w) {
		c.mu.Unlock()
		return 0, false
	}
	c.mu.Unlock()
	// The grant raced the cancellation and won: take the slot and give it
	// straight back, so the abandoned wait cannot strand capacity.
	got := <-w.grant
	c.releaseSlot(got)
	return 0, false
}

// unqueue removes w from its home queue; false means w is no longer queued
// (it has been, or is being, granted). Callers hold mu.
func (c *Cluster) unqueue(w *waiter) bool {
	q := c.queues[w.home]
	for i, cand := range q {
		if cand == w {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			c.queues[w.home] = q[:len(q)-1]
			if w.stealable {
				c.nsteal--
			}
			return true
		}
	}
	return false
}

// releaseSlot returns node n's CPU slot, handing it to the next execution:
// the oldest waiter queued on n itself, else — when stealable work is
// queued elsewhere — the oldest stealable waiter of the longest queue (the
// most loaded node donates). Only when no execution anywhere can use the
// slot does it become free.
func (c *Cluster) releaseSlot(n int) {
	c.mu.Lock()
	if q := c.queues[n]; len(q) > 0 {
		w := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		c.queues[n] = q[:len(q)-1]
		if w.stealable {
			c.nsteal--
		}
		c.mu.Unlock()
		w.grant <- n
		return
	}
	if c.nsteal > 0 {
		victim, depth := -1, 0
		for m := range c.queues {
			if m == n || len(c.queues[m]) <= depth {
				continue
			}
			for _, w := range c.queues[m] {
				if w.stealable {
					victim, depth = m, len(c.queues[m])
					break
				}
			}
		}
		if victim >= 0 {
			q := c.queues[victim]
			for i, w := range q {
				if !w.stealable {
					continue
				}
				copy(q[i:], q[i+1:])
				q[len(q)-1] = nil
				c.queues[victim] = q[:len(q)-1]
				c.nsteal--
				c.mu.Unlock()
				w.grant <- n
				return
			}
		}
	}
	c.free[n]++
	c.mu.Unlock()
}

// run executes fn on node n's already-acquired slot, accounting busy time
// and the execution count, and releases the slot.
func (c *Cluster) run(n int, fn func()) {
	start := time.Now()
	defer func() {
		c.busy[n].Add(int64(time.Since(start)))
		c.execs[n].Add(1)
		c.releaseSlot(n)
	}()
	fn()
}

// Exec runs fn as one box execution on the given node, blocking until a CPU
// slot is free and until fn has returned: box calls on a fully busy node
// queue behind the node's CPUs. It never migrates and cannot be cancelled.
func (c *Cluster) Exec(node int, fn func()) {
	c.ExecOn(node, nil, nil, false, func(int) { fn() })
}

// ExecBox implements core.Platform. Every execution runs in this process:
// local runs on the granted CPU slot, so remote is always false. When
// cancel fires before a slot has been granted, the wait is abandoned and ok
// is false without local having run, so a stopped network never strands
// queued work on — or leaks slots of — a shared cluster; an execution that
// has acquired its slot runs to completion and releases it normally. A nil
// cancel never fires. A stealable execution queues on its home node like
// any other, but while it waits, a node that runs out of local work may
// claim it: it then runs on the thief's slot, the steal is counted in
// Stats.Steals, and input — the triggering record, which would travel with
// the work in a distributed installation — is counted in Stats.Migrated,
// byte-sized against the home→thief link codec, and charged the configured
// transfer-cost model before local runs. A nil input migrates free of size
// (the per-hop latency is still charged).
func (c *Cluster) ExecBox(node int, cancel <-chan struct{}, _ string, input *record.Record,
	stealable bool, local func()) ([]*record.Record, bool, bool, error) {
	return nil, false, c.ExecOn(node, cancel, input, stealable, func(int) { local() }), nil
}

// accountSteal charges one stolen execution: the steal is counted, and the
// migrated input — a cross-node record hop in its own wire message — is
// counted like any stream hop so the Transfers/Batches/Bytes ratios stay
// comparable whether a record moved for placement or for stealing.
func (c *Cluster) accountSteal(home, thief int, input *record.Record) {
	c.steals.Add(1)
	var size int
	if input != nil {
		c.migs.Add(1)
		size = (&c.links[home*len(c.free)+thief]).Account(input)
		c.trans.Add(1)
		c.batches.Add(1)
		c.bytes.Add(int64(size))
	}
	c.chargeCost(size)
}

// ExecOn is the one scheduling path under Exec and ExecBox, and the hook
// for transports layered above this in-process model (internal/wire): it
// schedules on the home-node FIFO with ExecBox's cancellation and stealing
// semantics, but hands fn the node whose CPU slot was granted, so the
// caller can route the execution to the OS process that owns the slot. fn
// runs holding the granted node's slot, with busy time and the execution
// counted against that node; the slot is released when fn returns. It
// returns false without running fn when cancel fires before any slot was
// granted.
func (c *Cluster) ExecOn(node int, cancel <-chan struct{}, input *record.Record, stealable bool, fn func(granted int)) bool {
	n := c.node(node)
	got, ok := c.acquire(n, cancel, stealable)
	if !ok {
		return false
	}
	if got != n {
		c.accountSteal(n, got, input)
	}
	c.run(got, func() { fn(got) })
	return true
}

// Loads reports each node's scheduling load — CPU slots in use plus queued
// executions — appending into dst (reused when its capacity suffices). It
// is the feedback signal for load-aware placement (core.LeastLoaded): a
// node's load is how many executions stand between a newly placed unit of
// work and a CPU slot.
func (c *Cluster) Loads(dst []int) []int {
	dst = dst[:0]
	c.mu.Lock()
	for n, f := range c.free {
		dst = append(dst, c.cpus-f+len(c.queues[n]))
	}
	c.mu.Unlock()
	return dst
}

// Transfer accounts one record hop from node `from` to node `to`: the hop is
// counted, the record is byte-sized with the link's wire codec (interned
// labels against the link's negotiated table, so repeated shipments of the
// same label vocabulary shrink to symbol references), and — when a transfer
// cost is configured — the calling goroutine is delayed by
// latency + size/bandwidth, modelling the record traveling the interconnect.
// Same-node transfers are free and uncounted.
func (c *Cluster) Transfer(from, to int, r *record.Record) {
	f, t := c.node(from), c.node(to)
	if f == t {
		return
	}
	n := (&c.links[f*len(c.free)+t]).Account(r)
	c.trans.Add(1)
	c.batches.Add(1)
	c.bytes.Add(int64(n))
	c.chargeCost(n)
}

// TransferBatch accounts a whole stream batch crossing from node `from` to
// node `to` as one wire message: the records share a
// single message frame and one codec-lock acquisition
// (Codec.AccountBatch), every record still counts as one hop in Transfers,
// and — when a transfer cost is configured — the modelled per-hop latency
// is charged once for the batch plus the bandwidth delay for its total
// size. This is the amortization that makes batched links cheaper on a
// costed interconnect. Same-node batches are free and uncounted.
func (c *Cluster) TransferBatch(from, to int, rs []*record.Record) {
	if len(rs) == 0 {
		return
	}
	f, t := c.node(from), c.node(to)
	if f == t {
		return
	}
	n := (&c.links[f*len(c.free)+t]).AccountBatch(rs)
	c.trans.Add(int64(len(rs)))
	c.batches.Add(1)
	c.bytes.Add(int64(n))
	c.chargeCost(n)
}

// chargeCost delays the calling goroutine by the modelled cost of one wire
// message of n bytes, when a transfer cost is configured.
func (c *Cluster) chargeCost(n int) {
	if !c.costLive.Load() {
		return
	}
	d := time.Duration(c.latency.Load()) +
		time.Duration(c.perByte.Load())*time.Duration(n)/perByteScale
	if d > 0 {
		time.Sleep(d)
	}
}

// SetTransferCost configures the transfer-cost model: every cross-node hop
// is delayed by `latency` plus the record's wire size divided by
// `bytesPerSecond`. A zero bytesPerSecond means infinite bandwidth; calling
// SetTransferCost(0, 0) disables delays again (accounting continues either
// way). The model may be changed while networks are running; hops in flight
// use whichever values they observe.
func (c *Cluster) SetTransferCost(latency time.Duration, bytesPerSecond float64) {
	c.latency.Store(int64(latency))
	var per int64
	if bytesPerSecond > 0 {
		per = int64(float64(time.Second) * perByteScale / bytesPerSecond)
	}
	c.perByte.Store(per)
	c.costLive.Store(latency > 0 || per > 0)
}

// Stats returns a copy of the accounting counters. The snapshot is
// internally consistent per counter but not across counters: concurrent
// Exec/Transfer calls may land between reads.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Execs:     make([]int64, len(c.execs)),
		Busy:      make([]time.Duration, len(c.busy)),
		Transfers: c.trans.Load(),
		Batches:   c.batches.Load(),
		Bytes:     c.bytes.Load(),
		Steals:    c.steals.Load(),
		Migrated:  c.migs.Load(),
	}
	for i := range c.execs {
		s.Execs[i] = c.execs[i].Load()
		s.Busy[i] = time.Duration(c.busy[i].Load())
	}
	return s
}
