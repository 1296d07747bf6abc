package core

import (
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
}

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

// setStages makes e a stage-tree entity: it spawns as one goroutine driving
// a machine over the tree.
func (e *Entity) setStages(stages []fuseStage) {
	e.stages = layoutStages(stages, &e.layout, nil)
	e.spawn = func(env *Env, in, out *stream.Link) {
		env.start(func() {
			m := newMachine(env, e)
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

// syncFired marks a fired synchrocell in machine.filled.
const syncFired = -1

// machine is one instantiation of a stage tree: all the mutable state the
// stages need, in one allocation (plus the box execution closure). The
// slices are views of the inline arrays unless the tree needs more.
type machine struct {
	env    *Env
	stages []fuseStage

	// call/exec are the box stages' reusable call context and execution
	// closure (boxes are sequential per instance, and stages of one machine
	// run one at a time, so every box stage shares them). call.pending is
	// also the machine's output front: what leaves the last stage collects
	// there while one input record (or the close) is processed, and deliver
	// sends it — so a box that is the last stage emits straight into it.
	call BoxCall
	exec func()

	stored  []*record.Record // synchrocell storage, by fuseStage.slot
	filled  []int            // per synchrocell: slots filled, or syncFired
	cursors []int            // round-robin tie cursors, by fuseStage.idx
	scores  []branchState    // dispatch score cache, by fuseStage.slot

	storedArr [4]*record.Record
	intArr    [4]int
	scoreArr  [4]branchState
}

func newMachine(env *Env, e *Entity) *machine {
	m := &machine{env: env, stages: e.stages}
	l := &e.layout
	m.call.env = env
	m.call.pending = m.call.pendArr[:0]
	if l.boxes > 0 {
		m.exec = boxRunner(&m.call)
	}
	m.stored = m.storedArr[:]
	if l.slots > len(m.storedArr) {
		m.stored = make([]*record.Record, l.slots)
	}
	ints := m.intArr[:]
	if n := l.syncs + l.cursors; n > len(m.intArr) {
		ints = make([]int, n)
	}
	m.filled, m.cursors = ints[:l.syncs], ints[l.syncs:]
	m.scores = m.scoreArr[:]
	if l.scores > len(m.scoreArr) {
		m.scores = make([]branchState, l.scores)
	}
	return m
}

// feed runs one data record through the whole tree and delivers what comes
// out of the last stage on out, as one link operation. False means the
// instance was stopped; the caller unwinds (in-flight records are dropped
// like any stopped instance's).
func (m *machine) feed(r *record.Record, out *stream.Link) bool {
	return m.run(m.stages, r, nil) && m.deliver(out)
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
		best := pickBranch(m.env, s.ent, m.scores[s.slot:s.slot+n], m.cursors[s.idx:], r)
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
	matched, ok, dead := s.box.attempt(call, m.exec, r)
	if ok && matched && !dead && !finishCall(call, r) {
		recycle(r)
	}
	return ok
}
