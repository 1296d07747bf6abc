package core

import (
	"fmt"
	"sync"

	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/stream"
)

// Split builds the indexed parallel replication A!<tag>: one replica of A
// per distinct value of the tag, instantiated on demand; every incoming
// record must carry the tag and is routed to the replica selected by its
// value. Outputs merge nondeterministically.
func Split(a *Entity, tag string) *Entity { return splitEnt(a, tag, false, false) }

// SplitAt builds the indexed dynamic placement A!@<tag> from Distributed
// S-Net: like Split, but each replica is instantiated on a compute node,
// and records are accounted as transferred to that node on entry and back
// on exit.
//
// Which node a replica lands on is resolved at dispatch time by the
// placement policy (Options.Placer). The default Static policy keeps the
// pre-stamped-tag convention — the tag value is the node, modulo the
// platform's node count. RoundRobin and LeastLoaded make the node a runtime
// decision; the tag then only identifies the replica. Under a dynamic
// policy the index tag itself becomes optional: a record arriving without
// it is dispatched through a fresh single-shot replica on the policy-chosen
// node — the splitter emits untagged work and the scheduler places it.
// (With the Static policy an untagged record remains a runtime type error.)
func SplitAt(a *Entity, tag string) *Entity { return splitEnt(a, tag, true, false) }

// splitEnt implements both Split and SplitAt; placed is false for the
// non-placing variant. With executors set — by the optimizer, through the
// rebuild hook, when a plain split's operand is one execOperand accepts — a
// replica is a state block run on the split's executors (see execPool)
// instead of a spawned operand.
func splitEnt(a *Entity, tag string, placed, executors bool) *Entity {
	// The input type is A's input type with the index tag added to every
	// variant (every incoming record must carry the tag).
	inT := rtype.NewType()
	for _, v := range a.sig.In.Variants() {
		inT.AddVariant(v.Copy().Add(rtype.T(tag)))
	}
	if inT.NumVariants() == 0 {
		inT.AddVariant(rtype.NewVariant(rtype.T(tag)))
	}
	tagSym := record.Intern(tag)
	e := &Entity{
		nameFn: func() string {
			if placed {
				return fmt.Sprintf("(%s!@<%s>)", a.Name(), tag)
			}
			return fmt.Sprintf("(%s!<%s>)", a.Name(), tag)
		},
		sig:       rtype.NewSignature(inT, a.sig.Out),
		kids:      []*Entity{a},
		kind:      kindSplit,
		executors: executors,
		detDepth:  a.detDepth,
		looseOut:  a.looseOut,
		rebuild: func(kids []*Entity) *Entity {
			_, _, ok := execOperand(kids[0])
			return splitEnt(kids[0], tag, placed, !placed && ok)
		},
	}
	e.spawn = func(env *Env, in, out *stream.Link) {
		s := &splitter{env: env, e: e, tag: tagSym, placed: placed, out: out}
		if executors {
			s.blocks = make(map[int]*execReplica)
			s.pool = newExecPool(env, a, out)
		} else {
			s.instances = make(map[int]replica)
		}
		env.start(func() { s.run(in) })
	}
	return e
}

// splitter is one running split's dispatcher: it routes each record to the
// replica its index tag selects, instantiating replicas on demand. It is the
// first sender on the split's output; every spawned replica of a plain split
// is one more, and so is the return relay of every placed replica.
type splitter struct {
	env       *Env
	e         *Entity
	tag       record.Sym
	placed    bool
	out       *stream.Link
	instances map[int]replica      // spawned replicas
	blocks    map[int]*execReplica // replicas on executors
	pool      *execPool            // the executors, when replicas are state blocks

	loadScratch []int // reusable placement load snapshot
	untagged    int   // dispatch sequence for untagged records
}

// replica is one tag value's spawned replica: its input link and node.
type replica struct {
	in   *stream.Link
	node int
}

// run is the dispatcher. It routes whole input batches, forwarding each run
// of consecutive same-destination records as one unit: one platform transfer
// and one link (or queue) operation per run, stream order fully preserved,
// no per-batch allocation. A workload whose index tags arrive
// value-interleaved still pays one message per record; one that blocks them
// (or whose replicas see bursts) amortizes automatically.
func (s *splitter) run(in *stream.Link) {
	env := s.env
	defer env.closeLink(s.out)
	defer s.close()
	dynPlacer := env.dynamicPlacer() != nil
	for {
		b, ok := in.RecvBatch(env.done)
		if !ok {
			return
		}
		recs := b.Recs
		i := 0
		for i < len(recs) {
			r := recs[i]
			if !r.IsData() {
				if !env.send(s.out, r) {
					return
				}
				i++
				continue
			}
			v, ok := r.TagSym(s.tag)
			if !ok {
				if s.placed && dynPlacer {
					if !s.dispatchUntagged(r) {
						return
					}
					i++
					continue
				}
				env.reportRT(s.e.Name(), ErrCatNoMatch, r.String(), fmt.Errorf(
					"record %s lacks index tag <%s>", r, record.SymName(s.tag)))
				// The dropped record is dead; its delivery completes here.
				// Reclaim it.
				env.trackDrop(r)
				recycle(r)
				i++
				continue
			}
			j := i + 1
			for j < len(recs) && recs[j].IsData() {
				v2, ok2 := recs[j].TagSym(s.tag)
				if !ok2 || v2 != v {
					break
				}
				j++
			}
			if !s.dispatch(v, recs[i:j]) {
				return
			}
			i = j
		}
		stream.FreeBatch(b)
	}
}

// close ends every replica once the input has: spawned replicas see their
// input end, executors finish what is queued.
func (s *splitter) close() {
	for _, inst := range s.instances {
		s.env.closeLink(inst.in)
	}
	if s.pool != nil {
		s.pool.close()
	}
}

// dispatch hands a run of records to the replica for tag value v; false
// means the instance was stopped.
func (s *splitter) dispatch(v int, run []*record.Record) bool {
	if s.pool != nil {
		return s.pool.dispatch(s.block(v), run)
	}
	inst := s.replica(v)
	if s.placed {
		s.env.transferBatch(s.env.node, inst.node, run)
	}
	return inst.in.SendMany(run, s.env.done)
}

// block returns the state block of the replica for tag value v on
// executors, making it the moment the first record for it is dispatched.
func (s *splitter) block(v int) *execReplica {
	x, ok := s.blocks[v]
	if !ok {
		x = s.pool.add()
		s.blocks[v] = x
	}
	return x
}

// replica returns the spawned replica for tag value v, instantiating it the
// moment the first record for it is dispatched — a placed one on the node
// the placement policy resolves then.
func (s *splitter) replica(v int) replica {
	inst, ok := s.instances[v]
	if ok {
		return inst
	}
	env := s.env
	inst = replica{in: env.newLink(), node: env.node}
	instEnv := env
	if s.placed {
		inst.node = env.place(v, &s.loadScratch)
		instEnv = env.At(inst.node)
	}
	s.e.kids[0].spawn(instEnv, inst.in, s.output(inst.node))
	s.instances[v] = inst
	return inst
}

// dispatchUntagged routes one record the splitter left unplaced: a fresh
// single-shot replica on the node the policy picks now, fed exactly this
// record and closed, so every untagged unit of work is independently
// schedulable (and, with work stealing, independently migratable). The
// per-unit replica is the cost of that freedom — untagged dispatch is built
// for coarse-grained units like the raytracer's sections, not for
// fine-grained record streams.
func (s *splitter) dispatchUntagged(r *record.Record) bool {
	env := s.env
	node := env.place(s.untagged, &s.loadScratch)
	s.untagged++
	instIn := env.newLink()
	s.e.kids[0].spawn(env.At(node), instIn, s.output(node))
	// One record, one hop — accounted like a star tap's and the steal
	// scheduler's single-record moves.
	env.transfer(env.node, node, r)
	if !env.send(instIn, r) {
		return false
	}
	env.closeLink(instIn)
	return true
}

// output is where a new replica on node puts out: the split's own output,
// as one more sender, when the replica of a plain split runs on the split's
// node; otherwise a link of its own, relayed back to the split's node a
// whole batch per hop so the platform amortizes per-message framing and
// per-hop latency. A placed replica keeps its relay on the split's node
// too: which node takes the next unit of work is decided by what comes back
// first, and a hop fewer on the home node would shift work onto it.
func (s *splitter) output(node int) *stream.Link {
	env := s.env
	s.out.AddSender(1)
	if node == env.node && !s.placed {
		return s.out
	}
	instOut := env.newLink()
	env.start(func() { env.relay(instOut, s.out, node, env.node) })
	return instOut
}

// execOperand reports whether a split's executors can run operand a, and
// how: a is a stage tree (prefix), a chained star (tail), or a stage tree
// feeding a chained star (both) — the paper's Fig. 3 merger idiom.
func execOperand(a *Entity) (prefix, tail *Entity, ok bool) {
	switch {
	case a.stages != nil:
		return a, nil, true
	case a.chain:
		return nil, a, true
	case a.kind == kindSerial && len(a.kids) == 2 && a.kids[0].stages != nil && a.kids[1].chain:
		return a.kids[0], a.kids[1], true
	}
	return nil, nil, false
}

// execPool runs the replicas of a split whose operand is a stage tree, a
// chained star, or a stage tree feeding one (execOperand). A replica is a
// state block — one instantiation's synchrocell slots, fill counters and
// choice cursors, the star's chain of unfoldings, and the records queued for
// it — and an executor is a goroutine with a machine over the stage tree,
// which it points at one replica's block at a time to run that replica's
// queue in order, walking what the tree puts out through the replica's chain
// (star.pass). The dispatcher hands a replica that has records and no
// executor to an idle executor, or starts a new one when none is idle: a
// replica with records never waits for another's, so box executions of
// different replicas overlap as they did with a goroutine each, but there are
// as many goroutines as the busiest moment needed, not one per tag value. A
// replica's queue holds at most what its input link would have, so a slow
// replica holds the dispatcher back as a full link did. A chain that hands
// off starts a driver goroutine, one more sender on the split's output, as a
// star's chain does.
//
// Running the replicas in the dispatcher's own stack, as a star chain runs
// its unfoldings, would serialise them: solver!<cpu> would make one box call
// at a time.
type execPool struct {
	env    *Env
	prefix *Entity      // the operand's stage tree, if it has one
	tail   *star        // the operand's chained star, if it has one
	out    *stream.Link // where every replica puts out
	limit  int          // records one replica may queue
	reps   []*execReplica
	wg     sync.WaitGroup

	// handoff gives a replica to an executor counted idle; closed when the
	// input has ended, which sends the parked ones away. It is unbuffered:
	// while the dispatcher waits on it, other executors go idle and are
	// counted, so the next tag value finds one instead of starting another.
	handoff chan *execReplica

	mu   sync.Mutex
	idle int           // executors parked, or on their way to park, on handoff
	full *execReplica  // the replica whose queue the dispatcher waits on
	room chan struct{} // signalled when full's queue has room again
}

// execReplica is one tag value's replica on executors.
type execReplica struct {
	stored []*record.Record // the tree's layout.slots synchrocell slots
	ints   []int            // the tree's layout.ints() fill counters and cursors
	chain  chain            // the star's unfoldings; no machine before the first record

	// Guarded by the pool's mu.
	q    []*record.Record // queued records: q[head:], in arrival order
	head int
	busy bool // an executor has it, or is being handed it

	storedArr [2]*record.Record
	intArr    [2]int
	qArr      [4]*record.Record
}

// newExecPool is the pool for a split instance whose replicas run ent and
// put out on out.
func newExecPool(env *Env, ent *Entity, out *stream.Link) *execPool {
	prefix, tail, _ := execOperand(ent)
	p := &execPool{env: env, prefix: prefix, out: out, limit: max(1, env.opts.BufferSize),
		handoff: make(chan *execReplica), room: make(chan struct{}, 1)}
	if tail != nil {
		p.tail = &star{env: env, a: tail.kids[0], exit: tail.exit, out: out}
	}
	return p
}

// add makes the state block of a new replica, zero.
func (p *execPool) add() *execReplica {
	x := &execReplica{}
	x.stored, x.ints, x.q = x.storedArr[:0], x.intArr[:0], x.qArr[:0]
	if p.prefix != nil {
		l := &p.prefix.layout
		x.stored = append(x.stored, make([]*record.Record, l.slots)...)
		x.ints = append(x.ints, make([]int, l.ints())...)
	}
	p.reps = append(p.reps, x)
	return x
}

// dispatch queues run — data records, in order — for x and sees that an
// executor has it. It blocks while x's queue is full; false means the
// instance was stopped.
func (p *execPool) dispatch(x *execReplica, run []*record.Record) bool {
	for {
		p.mu.Lock()
		n := min(len(run), p.limit-(len(x.q)-x.head))
		if n > 0 && x.head > 0 && len(x.q)+n > cap(x.q) {
			// Compact before append grows the queue.
			k := copy(x.q, x.q[x.head:])
			clear(x.q[k:])
			x.q, x.head = x.q[:k], 0
		}
		x.q = append(x.q, run[:n]...)
		run = run[n:]
		start := n > 0 && !x.busy
		parked := false
		if start {
			x.busy = true
			if parked = p.idle > 0; parked {
				p.idle--
			}
		}
		if len(run) > 0 {
			p.full = x
		}
		p.mu.Unlock()
		switch {
		case !start:
		case parked:
			// An executor counted idle is parked on handoff or about to
			// be, at most one output away, so this send waits for nothing
			// else.
			select {
			case p.handoff <- x:
			case <-p.env.done:
				return false
			}
		default:
			p.start(x)
		}
		if len(run) == 0 {
			return true
		}
		select {
		case <-p.room:
		case <-p.env.done:
			return false
		}
	}
}

// start runs a new executor, on x first.
func (p *execPool) start(x *execReplica) {
	p.wg.Add(1)
	p.env.start(func() {
		defer p.wg.Done()
		p.run(x)
	})
}

// run is an executor: a machine over the stage tree, pointed at one
// replica's state block at a time. It runs x's queue through the operand,
// then parks until it is handed the next replica.
func (p *execPool) run(x *execReplica) {
	var m *machine
	if p.prefix != nil {
		m = newMachine(p.env, p.prefix)
	}
	var work []chainItem
	for {
		if m != nil {
			m.stored, m.ints = x.stored, x.ints
		}
		ahead := false
		for {
			r, last := p.next(x, ahead)
			if r == nil {
				break
			}
			var ok bool
			if ahead, work, ok = p.feed(m, x, r, last, work); !ok {
				return
			}
		}
		var ok bool
		select {
		case x, ok = <-p.handoff:
			if !ok {
				return
			}
		case <-p.env.done:
			return
		}
	}
}

// feed runs r, a record of x's, through the operand and puts out what comes
// of it; work is the executor's reusable walk stack. When r was the last
// record x had queued and there is output, the executor counts itself idle
// just before the final output leaves (ahead, see next): whoever reads that
// output may answer it with a new tag value at once, and the dispatcher must
// find this executor idle then, not start another. False means the instance
// was stopped.
func (p *execPool) feed(m *machine, x *execReplica, r *record.Record, last bool, work []chainItem) (ahead bool, _ []chainItem, ok bool) {
	if m != nil {
		if !m.run(m.ent.stages, r, nil) {
			return false, work, false
		}
		if p.tail == nil {
			ahead = last && len(m.call.pending) > 0 && p.drained(x)
			return ahead, work, m.deliver(p.out)
		}
		work = m.pushOuts(work, 0)
	} else {
		work = append(work, chainItem{r, 0})
	}
	if len(work) == 0 {
		return false, work, true
	}
	if x.chain.m == nil {
		x.chain = p.tail.newChain()
	}
	final, work, ok := p.tail.pass(&x.chain, work)
	if !ok || final == nil {
		return false, work, ok
	}
	ahead = last && p.drained(x)
	return ahead, work, p.env.send(p.out, final)
}

// drained counts the executor idle ahead of time when x has nothing queued;
// x stays the executor's until next lets it go.
func (p *execPool) drained(x *execReplica) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if x.head < len(x.q) {
		return false
	}
	p.idle++
	return true
}

// next takes x's next queued record and reports whether it was the last one
// queued. When there is none it lets x go and returns nil, counting the
// executor idle unless it already is (ahead). An executor counted ahead that
// finds records queued takes its count back — unless a dispatcher has
// already claimed it; then x goes to a new executor, and next returns nil so
// that this one parks and takes what it is handed.
func (p *execPool) next(x *execReplica, ahead bool) (*record.Record, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if x.head == len(x.q) {
		x.busy = false
		if !ahead {
			p.idle++
		}
		return nil, false
	}
	if ahead {
		if p.idle == 0 {
			p.start(x)
			return nil, false
		}
		p.idle--
	}
	r := x.q[x.head]
	x.q[x.head] = nil
	x.head++
	last := x.head == len(x.q)
	if last {
		x.q, x.head = x.q[:0], 0
	}
	if p.full == x {
		p.full = nil
		select {
		case p.room <- struct{}{}:
		default:
		}
	}
	return r, last
}

// close ends the pool once the input has ended: parked executors leave,
// busy ones leave when their replica's queue is empty and they would park.
// Then, replica by replica in creation order, what the tree's synchrocells
// still hold is discarded, then what the chain's hold, in depth order, and
// the chain's hand-off link is closed.
func (p *execPool) close() {
	close(p.handoff)
	p.wg.Wait()
	for _, x := range p.reps {
		discardStored(p.env, x.stored)
		x.chain.close()
	}
}
