package core

import (
	"fmt"
	"sync"

	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/stream"
)

// seqTag is the reserved tag used by deterministic combinators to track
// which input record an output descends from. It rides through branches via
// flow inheritance (no branch entity ever matches it) and is stripped
// before records leave the combinator. User networks must not use this
// label (or any label starting with it).
const seqTag = "__snet_seq"

// seqTagSym is the interned form, fixed at init so stamping and stripping
// the sequence tag never touches the symbol table's string index.
var seqTagSym = record.Intern(seqTag)

// seqSyms caches one interned sequence tag per deterministic-nesting depth.
// A Det* combinator containing further Det* combinators must stamp a tag
// none of them will strip: each entity uses the tag indexed by its own
// nesting depth (1 = innermost, the historical bare seqTag), so an inner
// combinator's stamp-and-strip cycle leaves the outer one's stamp intact
// and ordering is preserved at every level. The slice only ever grows to
// the deepest nesting seen process-wide.
var (
	seqSymsMu sync.Mutex
	seqSyms   = []record.Sym{seqTagSym}
)

// seqSymAt returns the sequence tag for nesting depth d >= 1.
func seqSymAt(d int) record.Sym {
	seqSymsMu.Lock()
	defer seqSymsMu.Unlock()
	for len(seqSyms) < d {
		seqSyms = append(seqSyms, record.Intern(fmt.Sprintf("%s@%d", seqTag, len(seqSyms)+1)))
	}
	return seqSyms[d-1]
}

// DetChoice builds the deterministic parallel composition A||B||...:
// records are dispatched exactly like Choice, but the output stream
// preserves the input order — all outputs descending from input record i
// are emitted before any output descending from record i+1, matching the
// semantics of S-Net's deterministic combinator variants.
//
// The implementation stamps each dispatched record with a hidden sequence
// tag (inherited through the branch) and reorders at the merge: outputs of
// the oldest outstanding input flow through immediately; later outputs are
// buffered until every older input is known to be finished, which is
// learned from each branch's FIFO progress (a branch emitting an output of
// a younger input completes all its older inputs) and from branch
// termination.
func DetChoice(branches ...*Entity) *Entity {
	if len(branches) == 0 {
		panic("core.DetChoice: no branches")
	}
	if len(branches) == 1 {
		return branches[0]
	}
	tree, ncursors := flatSelTree(len(branches))
	return detChoiceEnt(branches, tree, ncursors, false)
}

// detChoiceEnt builds the n-ary deterministic choice over the given leaf
// branches, dispatching through the selector tree exactly like choiceEnt.
// With elide set (optimizer-built trees), identity leaves are not spawned:
// their records take a control-style event pair straight into the merger,
// which emits them at their sequence position — the identity's output is
// its input, so no branch pipeline is needed to preserve order.
func detChoiceEnt(branches []*Entity, tree *selNode, ncursors int, elide bool) *Entity {
	inT := rtype.NewType()
	outT := rtype.NewType()
	for _, b := range branches {
		inT = inT.Union(b.sig.In)
		outT = outT.Union(b.sig.Out)
	}
	depth := 1 + maxDetDepth(branches)
	e := &Entity{
		nameFn:     func() string { return combName(branches, "||") },
		sig:        rtype.NewSignature(inT, outT),
		kids:       branches,
		kind:       kindDetChoice,
		selTree:    tree,
		selCursors: ncursors,
		elide:      elide,
		seqSym:     seqSymAt(depth),
		detDepth:   depth,
		looseOut:   anyLooseOut(branches),
	}
	e.spawn = func(env *Env, in, out *stream.Link) {
		events := make(chan detEvent, max(0, env.opts.BufferSize)+len(branches))
		// Per-branch input links and the dispatch score cache share one
		// scratch slice, as in Choice. st[i].in == nil marks an elided
		// identity leaf.
		st := make([]branchState, len(branches))
		spawned := 0
		for i, b := range branches {
			if elide && b.kind == kindIdentity {
				continue
			}
			spawned++
			st[i].in = env.newLink()
			bo := env.newLink()
			b.spawn(env, st[i].in, bo)
			env.start(func() { detPump(env, i, bo, events, e.seqSym) })
		}
		env.start(func() { runDetMerger(env, events, out) })
		env.start(func() {
			defer func() {
				for i := range st {
					if st[i].in != nil {
						env.closeLink(st[i].in)
					}
				}
			}()
			cursors := make([]int, ncursors)
			seq := 0
			for {
				r, ok := env.recv(in)
				if !ok {
					break
				}
				if !r.IsData() {
					// Control records take a sequence slot of their
					// own and complete immediately.
					if !sendEvent(env, events, detEvent{kind: evAssign, key: ctrlKey, seq: seq}) {
						return
					}
					if !sendEvent(env, events, detEvent{kind: evOutput, key: ctrlKey, seq: seq, rec: r}) {
						return
					}
					seq++
					continue
				}
				best, _ := pickBranch(env, e, st, cursors, r)
				if best < 0 {
					continue
				}
				if st[best].in == nil {
					// Elided identity leaf: the record is its own output;
					// hand it to the merger as a completed slot, unstamped.
					if !sendEvent(env, events, detEvent{kind: evAssign, key: ctrlKey, seq: seq}) {
						return
					}
					if !sendEvent(env, events, detEvent{kind: evOutput, key: ctrlKey, seq: seq, rec: r}) {
						return
					}
					seq++
					continue
				}
				r.SetTagSym(e.seqSym, seq)
				if !sendEvent(env, events, detEvent{kind: evAssign, key: best, seq: seq}) {
					return
				}
				seq++
				if !env.send(st[best].in, r) {
					return
				}
			}
			sendEvent(env, events, detEvent{kind: evNoMoreKeys, seq: spawned})
		})
	}
	return e
}

// DetSplit builds the deterministic indexed parallel replication A!!<tag>:
// like Split, one replica of A per distinct tag value, but the output
// stream preserves the input order across replicas, using the same
// sequence-and-reorder machinery as DetChoice.
func DetSplit(a *Entity, tag string) *Entity {
	inT := rtype.NewType()
	for _, v := range a.sig.In.Variants() {
		inT.AddVariant(v.Copy().Add(rtype.T(tag)))
	}
	if inT.NumVariants() == 0 {
		inT.AddVariant(rtype.NewVariant(rtype.T(tag)))
	}
	tagSym := record.Intern(tag)
	depth := 1 + a.detDepth
	e := &Entity{
		nameFn:   func() string { return fmt.Sprintf("(%s!!<%s>)", a.Name(), tag) },
		sig:      rtype.NewSignature(inT, a.sig.Out),
		kids:     []*Entity{a},
		seqSym:   seqSymAt(depth),
		detDepth: depth,
		looseOut: a.looseOut,
		rebuild:  func(kids []*Entity) *Entity { return DetSplit(kids[0], tag) },
	}
	e.spawn = func(env *Env, in, out *stream.Link) {
		events := make(chan detEvent, max(0, env.opts.BufferSize)+4)
		env.start(func() { runDetMerger(env, events, out) })
		env.start(func() {
			instances := make(map[int]*stream.Link)
			defer func() {
				for _, c := range instances {
					env.closeLink(c)
				}
			}()
			// Dense instance ids keep merger keys distinct from the
			// reserved control key even for negative tag values.
			ids := make(map[int]int)
			seq := 0
			for {
				r, ok := env.recv(in)
				if !ok {
					break
				}
				if !r.IsData() {
					if !sendEvent(env, events, detEvent{kind: evAssign, key: ctrlKey, seq: seq}) {
						return
					}
					if !sendEvent(env, events, detEvent{kind: evOutput, key: ctrlKey, seq: seq, rec: r}) {
						return
					}
					seq++
					continue
				}
				v, ok := r.TagSym(tagSym)
				if !ok {
					env.reportRT(e.Name(), ErrCatNoMatch, r.String(), fmt.Errorf(
						"record %s lacks index tag <%s>", r, tag))
					env.trackDrop(r)
					recycle(r)
					continue
				}
				instIn, ok := instances[v]
				if !ok {
					instIn = env.newLink()
					instances[v] = instIn
					ids[v] = len(ids)
					instOut := env.newLink()
					a.spawn(env, instIn, instOut)
					id := ids[v]
					env.start(func() { detPump(env, id, instOut, events, e.seqSym) })
				}
				r.SetTagSym(e.seqSym, seq)
				if !sendEvent(env, events, detEvent{kind: evAssign, key: ids[v], seq: seq}) {
					return
				}
				seq++
				if !env.send(instIn, r) {
					return
				}
			}
			sendEvent(env, events, detEvent{kind: evNoMoreKeys, seq: len(instances)})
		})
	}
	return e
}
