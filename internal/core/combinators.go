package core

import (
	"fmt"

	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/stream"
)

// Serial builds the serial composition A..B: the output stream of a becomes
// the input stream of b, so the two operate in pipeline mode. Identity
// operands, adjacent fusable stages and nested serial nests are taken
// apart by the instantiation-time optimizer (see Optimize), not here: the
// constructor records exactly what was written, so OptimizeOff spawns the
// tree as constructed.
func Serial(a, b *Entity) *Entity {
	return serialChain([]*Entity{a, b})
}

// serialChain builds the n-ary serial pipeline over ops (at least one; a
// single op is returned as-is). It is the normal form the optimizer
// flattens serial nests into — and what Serial itself builds, for two ops.
func serialChain(ops []*Entity) *Entity {
	if len(ops) == 1 {
		return ops[0]
	}
	e := &Entity{
		nameFn:   func() string { return combName(ops, "..") },
		sig:      rtype.NewSignature(ops[0].sig.In, ops[len(ops)-1].sig.Out),
		kids:     ops,
		kind:     kindSerial,
		detDepth: maxDetDepth(ops),
		looseOut: ops[len(ops)-1].looseOut,
	}
	e.spawn = func(env *Env, in, out *stream.Link) {
		cur := in
		last := len(ops) - 1
		for _, op := range ops[:last] {
			mid := env.newLink()
			op.spawn(env, cur, mid)
			cur = mid
		}
		ops[last].spawn(env, cur, out)
	}
	return e
}

// SerialAll folds Serial over two or more entities left to right.
func SerialAll(first *Entity, rest ...*Entity) *Entity {
	e := first
	for _, n := range rest {
		e = Serial(e, n)
	}
	return e
}

// Choice builds the parallel composition A|B|...: each incoming record is
// dispatched to the branch whose input type matches it best (the most
// specific matched variant wins). Ties are broken round-robin among the
// tied branches; since the branches run asynchronously the overall output
// stream is a nondeterministic order-of-arrival merge, exactly as in the
// paper. A record matching no branch is reported as a runtime type error
// and dropped.
func Choice(branches ...*Entity) *Entity {
	if len(branches) == 0 {
		panic("core.Choice: no branches")
	}
	if len(branches) == 1 {
		return branches[0]
	}
	tree, ncursors := flatSelTree(len(branches))
	return choiceEnt(branches, tree, ncursors, false)
}

// choiceEnt builds the n-ary nondeterministic choice over the given leaf
// branches, dispatching through the selector tree (see selNode). Choice
// builds the flat tree; the optimizer builds trees mirroring the nesting it
// flattened, with elide set so identity leaves bypass spawning.
func choiceEnt(branches []*Entity, tree *selNode, ncursors int, elide bool) *Entity {
	inT := rtype.NewType()
	outT := rtype.NewType()
	for _, b := range branches {
		inT = inT.Union(b.sig.In)
		outT = outT.Union(b.sig.Out)
	}
	e := &Entity{
		nameFn:     func() string { return combName(branches, "|") },
		sig:        rtype.NewSignature(inT, outT),
		kids:       branches,
		kind:       kindChoice,
		selTree:    tree,
		selCursors: ncursors,
		elide:      elide,
		detDepth:   maxDetDepth(branches),
		looseOut:   anyLooseOut(branches),
	}
	e.spawn = func(env *Env, in, out *stream.Link) {
		// Elided identity branches (the paper's ubiquitous [] bypass,
		// when the optimizer marked the choice) forward their records
		// straight to the merged output instead of paying two channels
		// and two goroutines per instantiation. st[i].in == nil marks an
		// elided branch. The per-branch input links and the dispatch
		// score cache share one scratch slice (one allocation per
		// instantiation, and star-unrolled choices instantiate a lot).
		// Every spawned branch writes straight into out, a sender of its
		// own next to the dispatcher.
		st := make([]branchState, len(branches))
		for i, b := range branches {
			if elide && b.kind == kindIdentity {
				continue
			}
			st[i].in = env.newLink()
			out.AddSender(1)
			b.spawn(env, st[i].in, out)
		}
		// Control records traverse the first non-elided branch so they
		// keep FIFO order with the data records routed there; they bypass
		// straight to the merge only when every branch is the (elided)
		// identity — whichever branch index 0 happens to be.
		var ctrlIn *stream.Link
		for i := range st {
			if st[i].in != nil {
				ctrlIn = st[i].in
				break
			}
		}
		env.start(func() {
			defer env.closeLink(out)
			defer func() {
				for i := range st {
					if st[i].in != nil {
						env.closeLink(st[i].in)
					}
				}
			}()
			cursors := make([]int, ncursors) // round-robin tie cursors
			for {
				r, ok := env.recv(in)
				if !ok {
					return
				}
				if !r.IsData() {
					if ctrlIn == nil {
						if !env.send(out, r) {
							return
						}
					} else if !env.send(ctrlIn, r) {
						return
					}
					continue
				}
				best, _ := pickBranch(env, e, st, cursors, r)
				if best < 0 {
					continue
				}
				if st[best].in == nil {
					if !env.send(out, r) {
						return
					}
				} else if !env.send(st[best].in, r) {
					return
				}
			}
		})
	}
	return e
}

// branchState is per-instantiation dispatcher scratch shared by Choice and
// DetChoice: the branch's input link (nil for an elided identity branch)
// and the dispatch score cache.
type branchState struct {
	in    *stream.Link
	score int
}

// selNode is one node of a choice dispatcher's selector tree. The tree
// exists so a flattened choice routes records exactly as the nested one it
// replaced: best-match dispatch composes (a nest's score is the best of its
// leaves' — the union type's BestMatch), but round-robin tie-breaking does
// not, because every nesting level keeps its own cursor that only advances
// for records it actually tied on. A leaf node names a branch index; a
// group node holds the sub-choices of one original nesting level plus the
// index of its cursor in the dispatcher's per-instantiation cursor slice.
// Choice's own tree is a single group over all leaves, which reproduces the
// historical flat round-robin.
type selNode struct {
	leaf int // branch index, or -1 for a group
	kids []selNode
	id   int // cursor slot (groups only)
}

// flatSelTree is the selector tree of an unnested n-way choice: one group,
// one cursor.
func flatSelTree(n int) (*selNode, int) {
	kids := make([]selNode, n)
	for i := range kids {
		kids[i] = selNode{leaf: i}
	}
	return &selNode{leaf: -1, kids: kids}, 1
}

// score returns the node's dispatch score for the cached leaf scores: a
// leaf's own, a group's best — exactly BestMatch against the nest's union
// input type, since a union type's best match is the best over its members.
func (n *selNode) score(st []branchState) int {
	if n.leaf >= 0 {
		return st[n.leaf].score
	}
	best := -1
	for i := range n.kids {
		if s := n.kids[i].score(st); s > best {
			best = s
		}
	}
	return best
}

// pick returns the winning branch index for the cached scores, advancing
// each level's round-robin cursor exactly as the equivalent nested
// dispatchers would: ties are counted among this level's best-scoring kids
// only, the cursor moves only when there is an actual tie, and only the
// chosen kid is descended into. Returns -1 when nothing matches, and
// whether some level broke a tie (moving its cursor).
func (n *selNode) pick(st []branchState, cursors []int) (int, bool) {
	tied := false
	for {
		if n.leaf >= 0 {
			if st[n.leaf].score < 0 {
				return -1, tied
			}
			return n.leaf, tied
		}
		best, bestScore, ties := -1, -1, 0
		for i := range n.kids {
			s := n.kids[i].score(st)
			if s > bestScore {
				best, bestScore, ties = i, s, 1
			} else if s == bestScore && s >= 0 {
				ties++
			}
		}
		if best < 0 {
			return -1, tied
		}
		if ties > 1 {
			tied = true
			k := cursors[n.id] % ties
			cursors[n.id]++
			for i := range n.kids {
				if n.kids[i].score(st) == bestScore {
					if k == 0 {
						best = i
						break
					}
					k--
				}
			}
		}
		n = &n.kids[best]
	}
}

// pickBranch is choice dispatch, whole: score every leaf of e once
// (BestMatch per branch, cached in st), resolve the winner through e's
// selector tree, and — when nothing matches — report the record against e,
// complete its delivery (the drop is sanctioned), reclaim it and return -1.
// tied reports that a round-robin cursor moved (see selNode.pick). The one
// implementation under the Choice and DetChoice dispatcher goroutines and
// the in-stack choice stage of a fused tree.
func pickBranch(env *Env, e *Entity, st []branchState, cursors []int, r *record.Record) (best int, tied bool) {
	for i, b := range e.kids {
		_, s := b.sig.In.BestMatch(r)
		st[i].score = s
	}
	best, tied = e.selTree.pick(st, cursors)
	if best < 0 {
		env.reportRT(e.Name(), ErrCatNoMatch, r.String(), fmt.Errorf(
			"record %s matches no branch input type", r))
		env.trackDrop(r)
		recycle(r)
	}
	return best, tied
}

// combName renders a combinator name like (a|b|c) lazily.
func combName(branches []*Entity, sep string) string {
	name := "("
	for i, b := range branches {
		if i > 0 {
			name += sep
		}
		name += b.Name()
	}
	return name + ")"
}

// Star builds the serial replication A*exit, conceptually an infinite chain
// A..A..A..… tapped before every replica: a record matching the exit
// pattern leaves the network at the tap; any other record enters the next
// replica. Replicas are instantiated lazily, and — as the paper stresses —
// the star never feeds records back; it unrolls.
//
// A star and all of its unfoldings run on the star's own node, under every
// placement policy: as in Distributed S-Net, work moves between nodes only
// where the program says so (A@node, A!@<tag>), and an unfolding is one more
// stage of a record's path, not a unit of dispatch.
func Star(a *Entity, exit *rtype.Pattern) *Entity { return starEnt(a, exit, false) }

// starEnt builds the star. With chained set — by the optimizer, through the
// rebuild hook, when the operand is a stage tree — the unfoldings do not
// spawn the operand: one driver goroutine runs a whole run of them in its
// own stack (see star.drive).
func starEnt(a *Entity, exit *rtype.Pattern, chained bool) *Entity {
	inT := a.sig.In.Union(rtype.NewType(exit.Variant))
	return &Entity{
		nameFn: func() string { return fmt.Sprintf("(%s*%s)", a.Name(), exit) },
		sig:    rtype.NewSignature(inT, rtype.NewType(exit.Variant)),
		kids:   []*Entity{a},
		kind:   kindStar,
		exit:   exit,
		chain:  chained,
		// Records only leave through the exit tap, so the output type
		// holds structurally even when the operand's does not.
		detDepth: a.detDepth,
		rebuild: func(kids []*Entity) *Entity {
			return starEnt(kids[0], exit, kids[0].stages != nil)
		},
		spawn: func(env *Env, in, out *stream.Link) {
			// The first tap or driver is the sender out came with.
			s := &star{env: env, a: a, exit: exit, out: out}
			if chained {
				c := s.newChain()
				env.start(func() { s.drive(in, c) })
			} else {
				env.start(func() { s.stage(in) })
			}
		},
	}
}

// star is one running star: what every tap needs, whichever way the
// unfoldings run — the operand spawned per unfolding (stage) or a stage-tree
// operand run by chain drivers (drive). Every tap and every unfolding runs
// on env's node.
type star struct {
	env  *Env // the star's own placement: every tap and unfolding runs here
	a    *Entity
	exit *rtype.Pattern
	// out is where records leave the star. Every tap and every chain driver
	// is one of its senders: each registers before it starts and closes it
	// once when it is done, and the last close ends the star's output.
	out *stream.Link
}

// send puts r out of the star; false means the instance was stopped.
func (s *star) send(r *record.Record) bool { return s.env.send(s.out, r) }

// start runs fn as a new sender on the star's output.
func (s *star) start(fn func()) {
	s.out.AddSender(1)
	s.env.start(fn)
}

// leaves reports whether r leaves the star at a tap: it matches the exit
// pattern, or it is a control record.
func (s *star) leaves(r *record.Record) bool { return !r.IsData() || s.exit.Matches(r) }

// stage is one unfolding of a star whose operand is spawned: the tap in
// front of one replica. It emits exit-matching records to the star's output
// and lazily creates the replica plus the next stage when the first non-exit
// record arrives.
func (s *star) stage(in *stream.Link) {
	env := s.env
	defer env.closeLink(s.out)
	var instIn *stream.Link // the replica's input, once it exists
	defer func() {
		if instIn != nil {
			env.closeLink(instIn)
		}
	}()
	for {
		r, ok := env.recv(in)
		if !ok {
			return
		}
		if s.leaves(r) {
			if !s.send(r) {
				return
			}
			continue
		}
		if instIn == nil {
			instIn = env.newLink()
			instOut := env.newLink()
			s.a.spawn(env, instIn, instOut)
			s.start(func() { s.stage(instOut) })
		}
		if !env.send(instIn, r) {
			return
		}
	}
}

// stopCheckEvery is how many steps a chain driver takes between two looks at
// the instance's done channel.
const stopCheckEvery = 64

// chain is the run of unfoldings one driver owns: n consecutive replicas as
// instantiations of one machine, and the hand-off behind the last of them,
// if there is one. Its first spent unfoldings are spent: every synchrocell
// in them has fired, so a record that meets no box, filter or choice tie in
// them crosses them unchanged, and pass lets such a record skip them.
type chain struct {
	m     *machine
	n     int
	spent int          // length of the spent prefix, <= n
	next  *stream.Link // hand-off: where replica n-1's output goes
	steps int          // unfoldings run, for tests
}

// chainItem is a record on its way through a chain, in front of the tap of
// the driver's i-th unfolding.
type chainItem struct {
	r *record.Record
	i int
}

// newChain is the chain of a new driver, nothing instantiated yet.
func (s *star) newChain() chain {
	return chain{m: newMachine(s.env, s.a)}
}

// drive runs a chain: the taps in front of its replicas and the replicas
// themselves, in one goroutine. A record from in meets the first tap and is
// walked through the unfoldings (see pass) before the next record is
// received. Control records leave at the first tap, behind all the data that
// came in front of them.
//
// Close discards what the synchrocells still hold, in depth order, then
// closes the hand-off link and signs off from the star's output.
func (s *star) drive(in *stream.Link, c chain) {
	env := s.env
	defer env.closeLink(s.out)
	defer c.close()
	var work []chainItem
	for {
		r, ok := env.recv(in)
		if !ok {
			return
		}
		var final *record.Record
		if final, work, ok = s.pass(&c, append(work, chainItem{r, 0})); !ok {
			return
		}
		if final != nil && !s.send(final) {
			return
		}
	}
}

// pass walks what is on work through chain c: a record meets the tap of its
// unfolding; what the replica there puts out meets the next tap, and so on
// until everything has left through an exit tap or come to rest in a
// synchrocell. The way is walked depth first over the explicit stack, the way
// machine.run walks a stage tree: one record is taken as far as it goes
// before its sibling moves, so every tap still sees its predecessor's output
// in order, as it would over a link; an exit match is sent the moment it is
// found, so a slow reader holds the walk back as it held a tap back; what
// waits is at most one replica's fan-out per unfolding; and star depth is a
// loop count, never Go stack depth. The one exception is an exit match that
// is the walk's last step: pass returns it unsent, for the caller to send
// once it has settled its own accounts (see execPool.feed). It also returns
// the emptied stack, for reuse; false means the instance was stopped.
//
// The walk hands off — replica k's output leaves over a link to a new driver
// that owns the unfoldings from k+1 on, which is what every unfolding used to
// do — only where a goroutine buys overlap: replica k ran its box on a record
// no synchrocell released in the same pass. There is no cell in front of the
// box, or the cells have fired and are the identity now. Such a box runs on
// every record that matches it, so unfoldings pipeline. A box that only ever
// runs on a join runs once per join, and the unfoldings are serial by data
// dependence.
//
// A record skips spent unfoldings. Taps, choice scores and fired cells look
// only at the record, so when unfolding i puts out the very record it was
// given, having met no box, no filter, no storing cell and no choice tie (a
// pure crossing, machine.pure), every spent unfolding behind i would do the
// same: the record goes straight on to the first unfolding behind i that is
// not spent — the end of the spent prefix, but with a hand-off no further
// than replica n-1, whose output goes over it. A reading of a Fig. 3 merger
// window thus runs three unfoldings, not one per reading folded before it.
func (s *star) pass(c *chain, work []chainItem) (*record.Record, []chainItem, bool) {
	env, m := s.env, c.m
	for steps := 1; len(work) > 0; steps++ {
		// Nothing below blocks unless a box or a full output does, so a
		// long way through the unfoldings has to look for Stop itself.
		if steps%stopCheckEvery == 0 && env.stopped() {
			return nil, work, false
		}
		top := len(work) - 1
		r, i := work[top].r, work[top].i
		work[top].r = nil
		work = work[:top]
		if s.leaves(r) {
			if len(work) == 0 {
				return r, work, true
			}
			if !s.send(r) {
				return nil, work, false
			}
			continue
		}
		if i == c.n {
			c.n++
			m.instantiate()
		}
		// With a hand-off, replica n-1's output leaves over next.
		last := c.next != nil && i == c.n-1
		m.use(i)
		m.joined, m.ranUngated, m.pure = false, false, true
		c.steps++
		if !m.run(m.ent.stages, r, nil) {
			return nil, work, false
		}
		if i == c.spent {
			for c.spent < c.n && m.fired(c.spent) {
				c.spent++
			}
		}
		if m.ranUngated && !last {
			s.handOff(c, i)
			last = true
		}
		if last {
			if !m.deliver(c.next) {
				return nil, work, false
			}
			continue
		}
		// The outputs meet the next tap, the first of them first; a record
		// that crossed unchanged meets the next one that is not spent.
		next := i + 1
		if m.pure && next < c.spent && len(m.call.pending) == 1 && m.call.pending[0] == r {
			next = c.spent
			if c.next != nil {
				next = min(next, c.n-1)
			}
		}
		work = m.pushOuts(work, next)
	}
	return nil, work, true
}

// pushOuts moves what the stages put out onto work, bound for the tap of
// unfolding i, the first of them on top.
func (m *machine) pushOuts(work []chainItem, i int) []chainItem {
	outs := m.call.pending
	for j := len(outs) - 1; j >= 0; j-- {
		work = append(work, chainItem{outs[j], i})
		outs[j] = nil
	}
	m.call.pending = outs[:0]
	return work
}

// close discards what c's synchrocells still hold, in depth order, and closes
// its hand-off link. A chain that never met a record has no machine, nothing
// stored and no hand-off.
func (c *chain) close() {
	if c.m == nil {
		return
	}
	c.m.discardStored()
	if c.next != nil {
		c.m.env.closeLink(c.next)
	}
}

// handOff cuts chain c behind its i-th replica: a new driver takes over the
// unfoldings behind it, and c's i-th replica puts out over a link to it from
// now on.
func (s *star) handOff(c *chain, i int) {
	rest := c.cut(i + 1)
	in := s.env.newLink()
	c.next = in
	s.start(func() { s.drive(in, rest) })
}

// cut keeps c's first k unfoldings, with no hand-off, and returns the chain
// of the rest: their state, the part of the spent prefix among them, and the
// hand-off c had.
func (c *chain) cut(k int) chain {
	rest := chain{m: newMachine(c.m.env, c.m.ent), n: c.n - k, spent: max(0, c.spent-k), next: c.next}
	c.m.moveState(rest.m, k)
	c.n, c.spent, c.next = k, min(c.spent, k), nil
	return rest
}

// At builds the static placement A@node from Distributed S-Net: the operand
// executes on the given compute node; records are accounted as transferred
// to that node on entry and back on exit.
func At(a *Entity, node int) *Entity {
	return &Entity{
		nameFn:   func() string { return fmt.Sprintf("(%s@%d)", a.Name(), node) },
		sig:      a.sig,
		kids:     []*Entity{a},
		detDepth: a.detDepth,
		looseOut: a.looseOut,
		rebuild:  func(kids []*Entity) *Entity { return At(kids[0], node) },
		spawn: func(env *Env, in, out *stream.Link) {
			target := node
			if n := env.Nodes(); n > 0 {
				target = ((node % n) + n) % n
			}
			innerIn := env.newLink()
			innerOut := env.newLink()
			env.start(func() { env.relay(in, innerIn, env.node, target) })
			a.spawn(env.At(target), innerIn, innerOut)
			env.start(func() { env.relay(innerOut, out, target, env.node) })
		},
	}
}
