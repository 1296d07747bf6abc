package core

import "snet/internal/rtype"

// OptimizeLevel selects how aggressively NewNetwork rewrites the entity
// tree before instantiation.
type OptimizeLevel int

const (
	// OptimizeFull — the zero value, on by default — enables the whole
	// rewrite catalogue: serial/choice flattening, identity elision, stage
	// fusion (filters, a box, synchrocells, choices; star operands run in
	// the star's chain driver, split operands — a stage tree, a chained
	// star, or a stage tree feeding one — on the split's executors), and
	// signature-driven branch pruning.
	OptimizeFull OptimizeLevel = iota
	// OptimizeOff disables the optimizer: the tree spawns exactly as
	// constructed. It is the escape hatch (and the reference side of the
	// internal/netdiff differential equivalence harness).
	OptimizeOff
)

// OptStats reports what the instantiation-time optimizer did to a network,
// rewrite by rewrite; Network.OptStats and Instance.OptStats return it
// next to LinkStats. Entity counts are spawn-faithful (a subtree shared by
// reference counts once per reference, a fused chain counts as one).
type OptStats struct {
	// Enabled is false when the network was built with OptimizeOff.
	Enabled bool
	// EntitiesBefore/EntitiesAfter count entity-tree nodes around the
	// rewrite; the difference is roughly goroutines-and-links not spawned.
	EntitiesBefore int
	EntitiesAfter  int
	// SerialsFlattened counts nested serial nodes spliced into an n-ary
	// chain; ChoicesFlattened counts same-determinism choice nests spliced
	// into an n-ary dispatch.
	SerialsFlattened int
	ChoicesFlattened int
	// IdentitiesElided counts identity filters removed from serial chains
	// (choice-embedded identities stay as dispatch targets but spawn
	// nothing; they are not counted here).
	IdentitiesElided int
	// Fusions by adjacent-stage kind: each counts one boundary where two
	// entities became stages of one fused goroutine.
	FilterFilterFused int
	FilterBoxFused    int
	BoxFilterFused    int
	// SyncsFused and ChoicesFused count synchrocells and nondeterministic
	// choices that became stages of a fused entity instead of goroutines
	// of their own (a fused choice's branches are nested stage lists).
	// StarOperandsInlined counts stars whose operand — a stage tree — is not
	// spawned per unfolding but run as a chain, by the star's own driver
	// (see star.drive) or, under a split on executors, by the executors: no
	// goroutine and no link per unfolding on the star's node.
	// SplitsOnExecutors counts indexed splits (A!<t>) whose operand — a
	// stage tree, a chained star, or a stage tree feeding a chained star —
	// is not spawned per tag value but kept as a state block per tag value
	// and run on the split's reusable executors (see execPool): no goroutine
	// and no link per replica.
	SyncsFused          int
	ChoicesFused        int
	StarOperandsInlined int
	SplitsOnExecutors   int
	// BranchesPruned counts choice branches removed because no upstream
	// record can ever win dispatch for them (rtype.Dominated);
	// ChoicesShortCircuited counts choices replaced outright by their sole
	// surviving branch.
	BranchesPruned        int
	ChoicesShortCircuited int
}

// Optimize rewrites an entity tree into a cheaper equivalent and reports
// what it did. The input is never mutated (entities are immutable and may
// be shared); unchanged subtrees are returned by reference. The catalogue:
//
//   - Flattening: nested Serial nests become one n-ary chain; nested
//     Choice (and nested DetChoice) nests become one n-ary dispatch whose
//     selector tree reproduces the nest's per-level round-robin
//     tie-breaking exactly.
//   - Identity elision: identity filters disappear from serial chains, and
//     choice dispatchers route records for identity branches straight to
//     the merge — the trivial case of fusion, generalized from the
//     per-combinator special cases earlier versions hard-coded in spawn.
//   - Fusion: a maximal run of adjacent stage-tree entities — filters,
//     synchrocells, nondeterministic choices all of whose branches are
//     stage trees (an identity branch is the empty one), and at most one
//     box, counted over the whole tree — becomes a single entity whose one
//     goroutine threads each record through the stages in its own stack:
//     no links, no per-hop handoff. A fusable choice standing alone fuses
//     too. Runs with two or more boxes are not merged across the second
//     box: box pipelining is real parallelism, and serializing heavy stages
//     to save a hop is a loss. Fusion changes the tree's shape, not the
//     code that runs: a box, filter or synchrocell as written is the
//     one-stage tree of the same stage machine (see fuseStage), and choice
//     dispatch is pickBranch either way.
//   - Star chains: a star whose operand is a stage tree runs its
//     unfoldings — tap and operand — as a chain in one driver goroutine
//     instead of spawning the operand per unfolding; it hands off to a new
//     driver only behind an unfolding whose box ran on a record no
//     synchrocell released in the same pass.
//   - Split executors: a plain split (A!<t>) whose operand is a stage tree,
//     a chained star, or a stage tree feeding a chained star (the Fig. 3
//     merger idiom) keeps one state block per tag value — the tree's state
//     and the star's chain — and runs it on executors — goroutines spawned
//     only when a replica has records and no executor is idle — so the
//     goroutine count is the peak number of busy replicas, not the number
//     of tag values. Placed splits (A!@<t>) keep a replica each: their hops
//     are the platform's to charge.
//   - Branch pruning: a choice branch no upstream record can ever win
//     dispatch for (rtype.Dominated over the declared signatures, sound
//     under flow inheritance) is removed; a choice left with one branch is
//     replaced by it. Disabled when the upstream entity's output type is
//     not trustworthy (Entity.looseOut: synchrocells and what follows
//     them).
//
// Deterministic choices, splits, placement and observation taps are never
// merged into fused trees (their merge, dispatch, transfer and callback
// points are the entity boundaries); their operands are still rewritten
// through their rebuild hooks.
func Optimize(e *Entity) (*Entity, OptStats) {
	st := OptStats{Enabled: true, EntitiesBefore: countEntities(e)}
	o := &optimizer{stats: &st, memo: map[*Entity]*Entity{}, lone: map[*Entity]*Entity{}}
	root := o.operand(e)
	st.EntitiesAfter = countEntities(root)
	return root, st
}

type optimizer struct {
	stats *OptStats
	// memo keeps rewrites by identity: entity trees are DAGs (one entity
	// may be referenced several times), and each reference must resolve to
	// the same rewritten node.
	memo map[*Entity]*Entity
	// lone keeps, likewise by identity, the fused form of each rewritten
	// choice that stands alone (see operand).
	lone map[*Entity]*Entity
}

// operand rewrites e as something that will be spawned as a unit — the
// root, a combinator's operand, a choice leaf — which is where a fusable
// choice standing alone becomes a fused entity. rewrite itself returns
// choices unfused, so an enclosing choice can still flatten them and an
// enclosing chain can prune them before fusing.
func (o *optimizer) operand(e *Entity) *Entity { return o.fuseLone(o.rewrite(e)) }

func (o *optimizer) fuseLone(r *Entity) *Entity {
	if r.kind != kindChoice {
		return r
	}
	f, ok := o.lone[r]
	if !ok {
		f = o.fuseChain([]*Entity{r})[0]
		o.lone[r] = f
	}
	return f
}

func (o *optimizer) rewrite(e *Entity) *Entity {
	if r, ok := o.memo[e]; ok {
		return r
	}
	var r *Entity
	switch e.kind {
	case kindSerial:
		r = o.rewriteSerial(e)
	case kindChoice, kindDetChoice:
		r = o.rewriteChoice(e)
	case kindStar:
		// Always rebuilt: the hook builds the star that runs a stage-tree
		// operand as a chain.
		r = e.rebuild([]*Entity{o.operand(e.kids[0])})
		if r.chain {
			o.stats.StarOperandsInlined++
		}
	case kindSplit:
		// Likewise: the hook builds the split that runs its operand on
		// executors when execOperand accepts it; the operand is rewritten
		// first, so a star in it is chained by then.
		r = e.rebuild([]*Entity{o.operand(e.kids[0])})
		if r.executors {
			o.stats.SplitsOnExecutors++
		}
	default:
		r = o.rewriteGeneric(e)
	}
	o.memo[e] = r
	return r
}

// rewriteGeneric handles nodes the optimizer has no structural rewrite
// for: leaves pass through, and nodes with a rebuild hook are
// reconstructed around their rewritten children (only when any changed).
func (o *optimizer) rewriteGeneric(e *Entity) *Entity {
	if len(e.kids) == 0 || e.rebuild == nil {
		return e
	}
	kids := make([]*Entity, len(e.kids))
	same := true
	for i, k := range e.kids {
		kids[i] = o.operand(k)
		if kids[i] != k {
			same = false
		}
	}
	if same {
		return e
	}
	return e.rebuild(kids)
}

// rewriteSerial flattens a serial nest into one op list, simplifies it
// (identity elision, branch pruning, short-circuiting) and fuses adjacent
// stateless runs.
func (o *optimizer) rewriteSerial(e *Entity) *Entity {
	var ops []*Entity
	serialNodes := 0
	var collect func(n *Entity)
	collect = func(n *Entity) {
		if n.kind == kindSerial {
			serialNodes++
			for _, k := range n.kids {
				collect(k)
			}
			return
		}
		op := o.rewrite(n)
		if op.kind == kindSerial {
			// The operand's rewrite produced a chain (e.g. a
			// short-circuited choice whose surviving branch was serial);
			// splice it.
			serialNodes++
			ops = append(ops, op.kids...)
			return
		}
		ops = append(ops, op)
	}
	collect(e)
	o.stats.SerialsFlattened += serialNodes - 1

	ops = o.simplifyChain(ops)
	ops = o.fuseChain(ops)
	return serialChain(ops)
}

// simplifyChain runs identity elision and choice pruning/short-circuiting
// over a flattened op list to a fixpoint (a short-circuited choice may
// expose a serial to splice, new identities to elide, or a next choice to
// prune).
func (o *optimizer) simplifyChain(ops []*Entity) []*Entity {
	for {
		changed := false

		// Identity elision: a pure pass-through contributes nothing to a
		// chain. An all-identity chain keeps one.
		nonID := 0
		for _, op := range ops {
			if op.kind != kindIdentity {
				nonID++
			}
		}
		switch {
		case nonID == 0:
			if len(ops) > 1 {
				o.stats.IdentitiesElided += len(ops) - 1
				ops = ops[:1]
			}
		case nonID < len(ops):
			o.stats.IdentitiesElided += len(ops) - nonID
			kept := ops[:0]
			for _, op := range ops {
				if op.kind != kindIdentity {
					kept = append(kept, op)
				}
			}
			ops = kept
			changed = true
		}

		// Branch pruning: a choice fed by a trustworthy upstream sheds
		// branches that can never win dispatch.
		for i := 1; i < len(ops); i++ {
			op := ops[i]
			if op.kind != kindChoice && op.kind != kindDetChoice {
				continue
			}
			up := ops[i-1]
			if up.looseOut {
				continue
			}
			if np := o.pruneChoice(op, up.sig.Out); np != op {
				ops[i] = np
				changed = true
			}
		}

		// Splice chains a short-circuit may have exposed.
		for _, op := range ops {
			if op.kind == kindSerial {
				var flat []*Entity
				for _, op := range ops {
					if op.kind == kindSerial {
						o.stats.SerialsFlattened++
						flat = append(flat, op.kids...)
					} else {
						flat = append(flat, op)
					}
				}
				ops = flat
				changed = true
				break
			}
		}

		if !changed {
			return ops
		}
	}
}

// pruneChoice removes branches that can never win dispatch against records
// of the upstream output type (rtype.Dominated). Returns op unchanged when
// nothing is dominated, or the sole surviving branch when all others are
// (the short circuit: single-branch dispatch is the branch itself, for
// the deterministic variant too — one FIFO branch needs no reorder
// machinery). Pruning cannot perturb the surviving branches' round-robin
// routing: a dominated branch is strictly outscored whenever it matches,
// so it never participates in a winning tie at any selector level.
func (o *optimizer) pruneChoice(op *Entity, upstream *rtype.Type) *Entity {
	ins := make([]*rtype.Type, len(op.kids))
	for i, b := range op.kids {
		ins[i] = b.sig.In
	}
	dom := rtype.Dominated(upstream, ins)
	n := 0
	for _, d := range dom {
		if d {
			n++
		}
	}
	if n == 0 {
		return op
	}
	o.stats.BranchesPruned += n
	var leaves []*Entity
	remap := make([]int, len(op.kids))
	for i, b := range op.kids {
		if dom[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(leaves)
		leaves = append(leaves, b)
	}
	if len(leaves) == 1 {
		o.stats.ChoicesShortCircuited++
		return leaves[0]
	}
	nc := 0
	tree := pruneSelTree(op.selTree, remap, &nc)
	if op.kind == kindDetChoice {
		return detChoiceEnt(leaves, tree, nc, op.elide)
	}
	return choiceEnt(leaves, tree, nc, op.elide)
}

// pruneSelTree copies a selector tree without the pruned leaves,
// renumbering surviving leaves (remap) and cursor slots (nc). Groups left
// with a single kid collapse into it: a one-way tie never advances a
// cursor, so the collapse is routing-neutral.
func pruneSelTree(n *selNode, remap []int, nc *int) *selNode {
	if n.leaf >= 0 {
		if remap[n.leaf] < 0 {
			return nil
		}
		return &selNode{leaf: remap[n.leaf]}
	}
	var kids []selNode
	for i := range n.kids {
		if k := pruneSelTree(&n.kids[i], remap, nc); k != nil {
			kids = append(kids, *k)
		}
	}
	switch len(kids) {
	case 0:
		return nil
	case 1:
		return &kids[0]
	}
	id := *nc
	*nc++
	return &selNode{leaf: -1, kids: kids, id: id}
}

// rewriteChoice flattens same-determinism choice nests into one n-ary
// dispatch. Each nested choice contributes its selector tree (grafted with
// its own cursor slots), so the flattened dispatcher breaks ties exactly
// as the nest did, level by level. Branches of the other determinism, and
// everything else, stay leaves — rewritten, not spliced.
func (o *optimizer) rewriteChoice(e *Entity) *Entity {
	var leaves []*Entity
	nc := 0
	var graft func(n *selNode, kids []*Entity) selNode
	graft = func(n *selNode, kids []*Entity) selNode {
		if n.leaf >= 0 {
			idx := len(leaves)
			leaves = append(leaves, kids[n.leaf])
			return selNode{leaf: idx}
		}
		gk := make([]selNode, len(n.kids))
		for i := range n.kids {
			gk[i] = graft(&n.kids[i], kids)
		}
		id := nc
		nc++
		return selNode{leaf: -1, kids: gk, id: id}
	}
	kids := make([]selNode, 0, len(e.kids))
	for _, k := range e.kids {
		rk := o.rewrite(k)
		if rk.kind == e.kind && rk.selTree != nil {
			o.stats.ChoicesFlattened++
			kids = append(kids, graft(rk.selTree, rk.kids))
			continue
		}
		kids = append(kids, selNode{leaf: len(leaves)})
		leaves = append(leaves, o.fuseLone(rk))
	}
	id := nc
	nc++
	tree := &selNode{leaf: -1, kids: kids, id: id}
	if e.kind == kindDetChoice {
		return detChoiceEnt(leaves, tree, nc, true)
	}
	return choiceEnt(leaves, tree, nc, true)
}

// fusableBoxes reports how many box stages op would contribute to a fused
// tree, or -1 when op cannot be a stage of one: it must be a stage tree
// already, or a nondeterministic choice over stage trees and identities.
func fusableBoxes(op *Entity) int {
	if op.stages != nil {
		return op.layout.boxes
	}
	if op.kind != kindChoice {
		return -1
	}
	n := 0
	for _, b := range op.kids {
		switch {
		case b.kind == kindIdentity:
		case b.stages != nil:
			n += b.layout.boxes
		default:
			return -1
		}
	}
	return n
}

// fuseChain merges maximal fusable runs (at most one box each) in an op
// list into single fused entities. A fusable choice fuses even as a run of
// one: that alone saves its dispatcher, branch and drain goroutines.
func (o *optimizer) fuseChain(ops []*Entity) []*Entity {
	var res []*Entity
	i := 0
	for i < len(ops) {
		j, boxes := i, 0
		for j < len(ops) {
			n := fusableBoxes(ops[j])
			if n < 0 || boxes+n > 1 {
				break
			}
			boxes += n
			j++
		}
		switch {
		case j == i:
			// Not fusable — or over the box budget all by itself (a choice
			// between two boxes): it stays as written.
			res = append(res, ops[i])
			j++
		case j-i >= 2 || ops[i].kind == kindChoice:
			res = append(res, o.fuseParts(ops[i:j]))
		default:
			res = append(res, ops[i])
		}
		i = j
	}
	return res
}

// boundaryKind resolves what stage kind a part presents at its first
// (last=false) or last (last=true) stage, for fusion accounting.
func boundaryKind(op *Entity, last bool) stageKind {
	if op.kind == kindChoice {
		return stageChoice
	}
	if last {
		return op.stages[len(op.stages)-1].kind
	}
	return op.stages[0].kind
}

// fuseParts builds one fused entity over the given adjacent parts.
func (o *optimizer) fuseParts(parts []*Entity) *Entity {
	var stages []fuseStage
	for _, p := range parts {
		switch p.kind {
		case kindChoice:
			// Identity leaves have no stages: the empty list passes the
			// record on.
			branches := make([][]fuseStage, len(p.kids))
			for i, b := range p.kids {
				branches[i] = b.stages
			}
			stages = append(stages, fuseStage{kind: stageChoice, ent: p, branches: branches})
			o.stats.ChoicesFused++
		default:
			if p.kind == kindSync {
				o.stats.SyncsFused++
			}
			stages = append(stages, p.stages...)
		}
	}
	// Count the new part boundaries only (an already-fused part's internal
	// boundaries were counted when it was built), and only the filter/box
	// ones these counters name.
	for i := 1; i < len(parts); i++ {
		a := boundaryKind(parts[i-1], true)
		b := boundaryKind(parts[i], false)
		switch {
		case a == stageFilter && b == stageFilter:
			o.stats.FilterFilterFused++
		case a == stageFilter && b == stageBox:
			o.stats.FilterBoxFused++
		case a == stageBox && b == stageFilter:
			o.stats.BoxFilterFused++
		}
	}
	parts = append([]*Entity(nil), parts...)
	e := &Entity{
		nameFn:   func() string { return "fused" + combName(parts, "..") },
		sig:      rtype.NewSignature(parts[0].sig.In, parts[len(parts)-1].sig.Out),
		kids:     parts,
		kind:     kindFused,
		looseOut: parts[len(parts)-1].looseOut,
	}
	e.setStages(stages)
	return e
}

// countEntities counts entity-tree nodes with spawn multiplicity: a
// subtree referenced twice instantiates twice, so it counts twice; a fused
// chain instantiates one goroutine, so it counts once regardless of how
// many parts it swallowed.
func countEntities(e *Entity) int {
	type memoEnt struct {
		n int
	}
	memo := map[*Entity]memoEnt{}
	var walk func(n *Entity) int
	walk = func(n *Entity) int {
		if m, ok := memo[n]; ok {
			return m.n
		}
		c := 1
		if n.kind != kindFused {
			for _, k := range n.kids {
				c += walk(k)
			}
		}
		memo[n] = memoEnt{n: c}
		return c
	}
	return walk(e)
}

// DeadBranches reports the names of choice branches of e that can never
// win dispatch against records produced by up (rtype.Dominated over the
// declared signatures) — the static form of the optimizer's branch
// pruning, used by the compiler to warn about dead branches. Nil unless e
// is a choice and up's declared output type is trustworthy (Entity
// looseness: synchrocells pass unmatched records through outside their
// declared type).
func DeadBranches(up, e *Entity) []string {
	if e.kind != kindChoice && e.kind != kindDetChoice {
		return nil
	}
	if up.looseOut {
		return nil
	}
	ins := make([]*rtype.Type, len(e.kids))
	for i, b := range e.kids {
		ins[i] = b.sig.In
	}
	dom := rtype.Dominated(up.sig.Out, ins)
	var names []string
	for i, d := range dom {
		if d {
			names = append(names, e.kids[i].Name())
		}
	}
	return names
}
