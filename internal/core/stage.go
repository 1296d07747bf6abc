package core

import (
	"slices"

	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/stream"
)

// stageKind discriminates what a fuseStage executes.
type stageKind uint8

const (
	stageFilter stageKind = iota
	stageBox
	stageSync
	stageChoice
)

func (k stageKind) String() string {
	return [...]string{"filter", "box", "sync", "choice"}[k]
}

// fuseStage is one node of a stage tree: the program a single goroutine
// threads records through in its own stack. A stage list is a serial
// pipeline; a choice stage nests one stage list per branch. Boxes, filters
// and synchrocells are one-stage trees of their own (so the tree as written
// and the optimizer's fused trees run the same stage code); the optimizer
// concatenates and nests them. The original entity is kept for error
// attribution and Describe.
type fuseStage struct {
	kind stageKind
	ent  *Entity

	rules    []compiledRule   // stageFilter
	box      *boxImpl         // stageBox
	patterns []*rtype.Pattern // stageSync
	// branches (stageChoice) holds one stage list per leaf of ent, in leaf
	// order; an identity leaf is the empty list. Dispatch is ent's own
	// selector tree. after is where a record leaving a branch goes on.
	branches [][]fuseStage
	after    *cont

	// Offsets into the machine's flat state (assigned by layoutStages).
	// stageSync: slot is the first stored-record slot, idx the fill counter.
	// stageChoice: slot is the first branch score, idx the first cursor.
	slot, idx int
}

// stageLayout sizes the per-instantiation state of one stage tree, so a
// machine carves all of it from one block: a tree's stage ids are fixed
// once, when the tree is built.
type stageLayout struct {
	boxes   int // box stages in the tree (fusion keeps this <= 1)
	slots   int // synchrocell storage slots, all cells
	syncs   int // synchrocells
	scores  int // choice branches, all choices
	cursors int // round-robin cursors, all choices
	// ungated: a record entering the tree can reach a box stage without
	// first crossing a synchrocell, so a chained star over it is certain to
	// hand off at every unfolding (see star.pass). Describe says so.
	ungated bool
}

// ints is how many integers one instantiation's state holds: a fill counter
// per synchrocell and the choices' cursors.
func (l *stageLayout) ints() int { return l.syncs + l.cursors }

// cont is where records go after the end of a stage list: into the rest of
// the enclosing list (what leaves a choice branch continues after the
// choice) and so on outwards; nil is out of the machine. The chain is a
// property of the tree, fixed by layoutStages.
type cont struct {
	stages []fuseStage
	next   *cont
}

// layoutStages copies a stage tree (parts are shared between the entities
// that were fused from them, their offsets are not), assigns every stateful
// stage its offsets in l and every choice its continuation; k continues the
// list itself.
func layoutStages(stages []fuseStage, l *stageLayout, k *cont) []fuseStage {
	out := make([]fuseStage, len(stages))
	for i, s := range stages {
		switch s.kind {
		case stageBox:
			l.boxes++
		case stageSync:
			s.slot, s.idx = l.slots, l.syncs
			l.slots += len(s.patterns)
			l.syncs++
		case stageChoice:
			s.slot, s.idx = l.scores, l.cursors
			l.scores += len(s.branches)
			l.cursors += s.ent.selCursors
			s.after = &cont{stages: out[i+1:], next: k}
			br := make([][]fuseStage, len(s.branches))
			for j := range br {
				br[j] = layoutStages(s.branches[j], l, s.after)
			}
			s.branches = br
		}
		out[i] = s
	}
	return out
}

// ungatedBox walks a stage list the way a record entering it would, up to
// the first synchrocell on each path: box reports a box stage reached on the
// way, through that some path leaves the list without meeting either.
func ungatedBox(stages []fuseStage) (box, through bool) {
	for i := range stages {
		switch s := &stages[i]; s.kind {
		case stageBox:
			return true, false
		case stageSync:
			return false, false
		case stageChoice:
			through = false
			for _, br := range s.branches {
				b, t := ungatedBox(br)
				if b {
					return true, false
				}
				through = through || t
			}
			if !through {
				return false, false
			}
		}
	}
	return false, true
}

// setStages makes e a stage-tree entity: it spawns as one goroutine driving
// a machine over the tree.
func (e *Entity) setStages(stages []fuseStage) {
	e.stages = layoutStages(stages, &e.layout, nil)
	e.layout.ungated, _ = ungatedBox(e.stages)
	e.spawn = func(env *Env, in, out *stream.Link) {
		env.start(func() {
			m := newMachine(env, e)
			m.instantiate()
			m.use(0)
			defer m.close(out)
			for {
				r, ok := env.recv(in)
				if !ok {
					return
				}
				if !r.IsData() {
					// Control records pass straight through, FIFO with the
					// data: everything before them has already left.
					if !env.send(out, r) {
						return
					}
					continue
				}
				if !m.feed(r, out) {
					return
				}
			}
		})
	}
}

// frontCap is the size of the output front a stage keeps on the stack; a
// front only spills to the heap when one record fans out wider than this.
const frontCap = 8

// syncFired marks a fired synchrocell in its fill counter (machine.ints).
const syncFired = -1

// machine runs a stage tree for one goroutine: the box call context and
// execution closure, the dispatch score cache, and the state of every
// instantiation of the tree the goroutine owns, laid end to end — one for a
// stage-tree entity, one per unfolding reached for a star chain (star.pass).
// Instantiations run one at a time, so they share everything that is not
// state: what an instantiation adds is its synchrocell slots, fill counters
// and choice cursors, nothing at all for a tree without either. The inline
// arrays back the first instantiations; a plain entity's machine is one
// allocation (plus the box execution closure).
type machine struct {
	env *Env
	ent *Entity // the stage tree: ent.stages, sized by ent.layout

	// call/exec are the box stages' reusable call context and execution
	// closure (boxes are sequential per instance, and stages of one machine
	// run one at a time, so every box stage shares them). call.pending is
	// also the machine's output front: what leaves the last stage collects
	// there while one input record (or the close) is processed, and deliver
	// sends it — so a box that is the last stage emits straight into it.
	call BoxCall
	exec func()

	scores []branchState // dispatch score cache, by fuseStage.slot

	// State, layout.slots and layout.ints() entries per instantiation: the
	// synchrocell storage by fuseStage.slot; per synchrocell the slots
	// filled (or syncFired) by fuseStage.idx, then the round-robin tie
	// cursors by fuseStage.idx. The stages run on the instantiation whose
	// state starts at sb and ib (see use).
	stored []*record.Record
	ints   []int
	sb, ib int

	// joined: a synchrocell has fired in the current pass and no box has run
	// on what it released yet. ranUngated: a box ran in the current pass on a
	// record no join released. pure: the current pass has met no box and no
	// filter stage, stored nothing in a synchrocell and broken no choice tie.
	// A chain driver sets them before a pass, hands off behind a replica whose
	// box ran ungated and lets a record whose pass was pure skip spent
	// unfoldings (see star.pass).
	joined, ranUngated, pure bool

	storedArr [4]*record.Record
	intArr    [4]int
	scoreArr  [4]branchState
}

func newMachine(env *Env, e *Entity) *machine {
	m := &machine{env: env, ent: e}
	m.call.env = env
	m.call.pending = m.call.pendArr[:0]
	if e.layout.boxes > 0 {
		m.exec = boxRunner(&m.call)
	}
	m.scores = m.scoreArr[:]
	if e.layout.scores > len(m.scoreArr) {
		m.scores = make([]branchState, e.layout.scores)
	}
	m.stored, m.ints = m.storedArr[:0], m.intArr[:0]
	return m
}

// instantiate adds the (zero) state of one more instantiation of the tree,
// after the ones there are.
func (m *machine) instantiate() {
	l := &m.ent.layout
	m.stored = slices.Grow(m.stored, l.slots)[:len(m.stored)+l.slots]
	m.ints = slices.Grow(m.ints, l.ints())[:len(m.ints)+l.ints()]
}

// use points the stages at instantiation i's state.
func (m *machine) use(i int) {
	l := &m.ent.layout
	m.sb, m.ib = i*l.slots, i*l.ints()
}

// moveState moves the state of instantiations k and up to dst, a machine of
// the same tree that has none.
func (m *machine) moveState(dst *machine, k int) {
	l := &m.ent.layout
	s, i := k*l.slots, k*l.ints()
	dst.stored = append(dst.stored, m.stored[s:]...)
	dst.ints = append(dst.ints, m.ints[i:]...)
	// instantiate expects zeroes past the end.
	clear(m.stored[s:])
	clear(m.ints[i:])
	m.stored, m.ints = m.stored[:s], m.ints[:i]
}

// fired reports whether every synchrocell of instantiation k has fired: the
// instantiation is the identity on every record that does not meet a box, a
// filter or a choice tie in it.
func (m *machine) fired(k int) bool {
	l := &m.ent.layout
	for _, f := range m.ints[k*l.ints():][:l.syncs] {
		if f != syncFired {
			return false
		}
	}
	return true
}

// cursors returns the current instantiation's tie cursors from the idx-th on.
func (m *machine) cursors(idx int) []int {
	return m.ints[m.ib+m.ent.layout.syncs+idx:]
}

// feed runs one data record through the whole tree and delivers what comes
// out of the last stage on out, as one link operation. False means the
// instance was stopped; the caller unwinds (in-flight records are dropped
// like any stopped instance's).
func (m *machine) feed(r *record.Record, out *stream.Link) bool {
	return m.run(m.ent.stages, r, nil) && m.deliver(out)
}

// deliver sends what the stages put out, dropping the references so
// recycled records are not retained past delivery.
func (m *machine) deliver(out *stream.Link) bool {
	call := &m.call
	ok := m.env.sendMany(out, call.pending)
	clear(call.pending)
	call.pending = call.pending[:0]
	return ok
}

// close ends the machine's input: synchrocells discard their storage (the
// reference runtime's behaviour at network termination) and out is closed.
func (m *machine) close(out *stream.Link) {
	m.discardStored()
	m.env.closeLink(out)
}

// run threads r through a stage list and on into k, depth first: each
// output of the first stage runs through the rest before the next output
// does. Every stage still sees its predecessor's outputs in order, so the
// machine's output is the order the spawned pipeline would produce — and
// for a choice, one of the arrival orders its merge could. The stage owns r
// from here on (consumed, stored, dropped or passed).
func (m *machine) run(stages []fuseStage, r *record.Record, k *cont) bool {
	for len(stages) == 0 {
		if k == nil {
			m.call.pending = append(m.call.pending, r)
			return true
		}
		stages, k = k.stages, k.next
	}
	s, rest := &stages[0], stages[1:]
	switch {
	case s.kind == stageChoice:
		n := len(s.branches)
		best, tied := pickBranch(m.env, s.ent, m.scores[s.slot:s.slot+n], m.cursors(s.idx), r)
		if tied {
			m.pure = false
		}
		return best < 0 || m.run(s.branches[best], r, s.after)
	case len(rest) > 0 || k != nil:
		var buf [frontCap]*record.Record
		outs, ok := m.step(s, r, buf[:0])
		if !ok {
			return false
		}
		for _, o := range outs {
			if !m.run(rest, o, k) {
				return false
			}
		}
		return true
	case s.kind == stageBox:
		// The last stage puts out directly (all there is to a box, filter
		// or synchrocell standing alone): a box's emissions are where they
		// belong already.
		return m.boxCall(s, r)
	default:
		var ok bool
		m.call.pending, ok = m.step(s, r, m.call.pending)
		return ok
	}
}

// step runs r through one filter, box or synchrocell stage and appends the
// stage's outputs to dst; false means the instance was stopped mid-stage.
func (m *machine) step(s *fuseStage, r *record.Record, dst []*record.Record) ([]*record.Record, bool) {
	switch s.kind {
	case stageFilter:
		m.pure = false
		return runRules(m.env, s.ent, s.rules, r, dst), true
	case stageSync:
		return m.syncStep(s, r, dst), true
	}
	if !m.boxCall(s, r) {
		return dst, false
	}
	call := &m.call
	em := call.pending[call.base:]
	dst = append(dst, em...)
	clear(em)
	call.pending = call.pending[:call.base]
	return dst, true
}

// boxCall runs one box execution for r under the retry policy, leaving the
// emissions at the end of the output front. They leave the call context
// outside the platform slot, so downstream backpressure never holds a node
// CPU. The box consumed its input: r is dead unless the body re-emitted it,
// matched nothing (reported and reclaimed) or was dead-lettered. False means
// the instance was stopped.
func (m *machine) boxCall(s *fuseStage, r *record.Record) bool {
	call := &m.call
	call.box = s.box
	call.base = len(call.pending)
	m.pure = false
	matched, ok, dead := s.box.attempt(call, m.exec, r)
	if matched {
		m.ranUngated = m.ranUngated || !m.joined
		m.joined = false
	}
	if ok && matched && !dead && !finishCall(call, r) {
		recycle(r)
	}
	return ok
}
