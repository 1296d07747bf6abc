package netdiff

import (
	"fmt"
	"math/rand"

	"snet/internal/core"
	"snet/internal/record"
	"snet/internal/rtype"
)

// Gen is one generated differential test case: a combinator tree, a
// matching record stream, and whether the tree promises output order
// (det-only grammar) so Check can compare sequences instead of multisets.
type Gen struct {
	Entity  *core.Entity
	Inputs  func() []*record.Record
	Ordered bool
	Desc    string
}

// Generate builds a seeded random combinator tree over the grammar
// serial / choice / det-choice / star / split / det-split / sync /
// filter / box / identity, bounded in depth and width, together with a
// record stream every generated network is total over.
//
// The stream invariant that makes totality checkable by construction:
// every record carries field x and tag <k>, and every generated entity
// preserves both (boxes re-emit x, filters match {} and inherit, split
// dispatches on <k> without consuming it). Tag <a> on half the records is
// the dispatch discriminator: choices guard one branch with {x,<a>}
// (score 2, a-records only) and one with {x} (score 1, everything), so
// dispatch has a unique winner per record and is arrival-order
// independent — required wherever upstream order is nondeterministic.
// Where upstream order IS deterministic the generator also emits
// same-score branch pairs, exercising round-robin tie-breaking, and
// firing synchrocells (their state transitions depend on arrival order).
//
// The generator threads an "arrival order deterministic here" flag
// through the tree: choice, split and star destroy downstream order;
// serial, the det combinators, filters, boxes and synchrocells preserve
// it. A third of the seeds restrict themselves to the order-preserving
// grammar and are checked as sequences (Ordered).
func Generate(seed int64) Gen {
	r := rand.New(rand.NewSource(seed))
	g := &gen{r: r, det: r.Intn(3) == 0}
	width := 2 + r.Intn(2)
	subs := make([]*core.Entity, width)
	ordered := true
	for i := range subs {
		subs[i], ordered = g.node(3, ordered)
	}
	ent := core.SerialAll(subs[0], subs[1:]...)
	nrec := 12 + r.Intn(12)
	return Gen{
		Entity: ent,
		Inputs: func() []*record.Record {
			ins := make([]*record.Record, nrec)
			for i := range ins {
				b := record.Build().F("x", i).T("k", i%3)
				if i%2 == 0 {
					b = b.T("a", 1)
				}
				ins[i] = b.Rec()
			}
			return ins
		},
		Ordered: ordered,
		Desc:    ent.Name(),
	}
}

type gen struct {
	r *rand.Rand
	// det restricts the grammar to order-preserving constructs so the
	// check can assert sequence equality.
	det bool
	// inStar is set while a star's body is generated: stars nest only
	// where the star case says so, or the passes multiply out of hand.
	inStar  bool
	nextTag int
}

func (g *gen) tag() string {
	g.nextTag++
	return fmt.Sprintf("g%d", g.nextTag)
}

// node generates a subtree. ordered says whether record arrival order at
// this point is deterministic; the returned flag says the same about the
// subtree's output.
func (g *gen) node(depth int, ordered bool) (*core.Entity, bool) {
	if depth == 0 {
		return g.leaf(), ordered
	}
	for {
		switch g.r.Intn(8) {
		case 0:
			return g.leaf(), ordered
		case 1, 2: // serial
			width := 2 + g.r.Intn(2)
			subs := make([]*core.Entity, width)
			o := ordered
			for i := range subs {
				subs[i], o = g.node(depth-1, o)
			}
			return core.SerialAll(subs[0], subs[1:]...), o
		case 3: // choice
			if g.det {
				continue
			}
			e, _ := g.choice(depth, ordered, false)
			return e, false
		case 4: // det-choice
			return g.choice(depth, ordered, true)
		case 5: // star
			if g.det || g.inStar {
				continue
			}
			// The star body sees records from different unfolding rounds
			// interleaved, so arrival order inside it is never
			// deterministic regardless of the input order.
			g.inStar = true
			sub, _ := g.node(depth-1, false)
			g.inStar = false
			rounds := 1 + g.r.Intn(2)
			switch g.r.Intn(4) {
			case 0, 1:
				// The merger idiom's operand shape, sync..(… | []): what a
				// star runs as a chain, every unfolding in one goroutine. The
				// cell never fires (arrival order is not deterministic here)
				// and the guarded branch has a unique winner per record. Half
				// the time the branch starts with a box that emits twice, so
				// several records wait in front of the next tap (the chain
				// driver must hand them on in link order).
				br := core.Serial(guardXA(), sub)
				if g.r.Intn(2) == 0 {
					br = core.SerialAll(guardXA(), dupBox(1+g.r.Intn(5)), sub)
				}
				sub = gated(br)
			case 2:
				// Star in star, each counting on a tag of its own. The body's
				// fan-outs compound per pass, so the outer star makes one.
				sub = starWrap(g.tag(), sub, rounds)
				rounds = 1
			}
			return starWrap(g.tag(), sub, rounds), false
		case 6: // split / det-split
			// Each split instance receives its subsequence in arrival
			// order; the det merger restores global order only when the
			// body is itself order-preserving.
			sub, so := g.node(depth-1, ordered)
			if g.det || g.r.Intn(2) == 0 {
				return core.DetSplit(sub, "k"), ordered && so
			}
			return core.Split(sub, "k"), false
		case 7: // synchrocell
			if ordered {
				// Firing sync: the first a-record and the first other
				// record merge — deterministic only under deterministic
				// arrival.
				return core.NewSync(
					rtype.NewPattern(rtype.NewVariant(rtype.T("a"))),
					rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
				), true
			}
			return idleSync(), ordered
		}
	}
}

func (g *gen) leaf() *core.Entity {
	switch g.r.Intn(4) {
	case 0: // box: x += delta
		delta := 1 + g.r.Intn(5)
		sig := core.MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
		return core.NewBox(fmt.Sprintf("inc%d", delta), sig, func(c *core.BoxCall) error {
			c.Emit(record.New().SetField("x", c.Field("x").(int)+delta))
			return nil
		})
	case 1: // filter: stamp a fresh tag
		return setTag(g.tag(), g.r.Intn(10))
	case 2: // fan-out filter: two outputs distinguished by a fresh tag
		name := g.tag()
		return core.NewFilter("", core.FilterRule{
			Pattern: rtype.NewPattern(rtype.NewVariant()),
			Outputs: []core.FilterOutput{
				{SetTags: []core.TagAssign{constTag(name, 0)}},
				{SetTags: []core.TagAssign{constTag(name, 1)}},
			},
		})
	default:
		return core.Identity()
	}
}

// choice builds a two-branch (det-)choice. Under deterministic arrival it
// sometimes emits a same-score branch pair (round-robin ties); otherwise
// dispatch uses the {x,<a>} / {x} guard pair, whose per-record winner is
// unique and therefore arrival-order independent. The returned order flag
// holds for the det form only: the deterministic merger restores input
// order only when both branches are internally order-preserving — a
// nondeterministic combinator inside a branch reorders records across the
// hidden sequence, which the merger passes through rather than restores.
func (g *gen) choice(depth int, ordered, det bool) (*core.Entity, bool) {
	sub0, o0 := g.node(depth-1, ordered)
	sub1, o1 := g.node(depth-1, ordered)
	var b0, b1 *core.Entity
	if ordered && g.r.Intn(2) == 0 {
		b0 = core.Serial(guardX(), sub0)
		b1 = core.Serial(guardX(), sub1)
	} else {
		b0 = core.Serial(guardXA(), sub0)
		b1 = core.Serial(guardX(), sub1)
	}
	if det {
		return core.DetChoice(b0, b1), ordered && o0 && o1
	}
	return core.Choice(b0, b1), false
}

// starWrap puts sub under a countdown star: a prefix filter arms tag <s>
// (a name of the star's own, so stars nest), each pass decrements it, the
// star exits at zero.
func starWrap(s string, sub *core.Entity, rounds int) *core.Entity {
	arm := core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant()),
		Outputs: []core.FilterOutput{{SetTags: []core.TagAssign{constTag(s, rounds)}}},
	})
	dec := core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T(s))),
		Outputs: []core.FilterOutput{{SetTags: []core.TagAssign{{
			Name: s,
			Expr: func(r *record.Record) int { v, _ := r.Tag(s); return v - 1 },
			Src:  s + "-=1",
		}}}},
	})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T(s))).
		WithGuard(func(r *record.Record) bool { v, _ := r.Tag(s); return v <= 0 }, s+"<=0")
	return core.Serial(arm, core.Star(core.Serial(sub, dec), exit))
}

// gated puts br behind a synchrocell that never fires, as the guarded branch
// of the merger idiom's operand shape: sync..(br | []). A star over it runs
// as a chain whatever br holds.
func gated(br *core.Entity) *core.Entity {
	return core.Serial(idleSync(), core.Choice(br, core.Identity()))
}

// idleSync is a synchrocell on labels the stream never carries: pure
// pass-through that never fires, but still a looseOut barrier for pruning.
func idleSync() *core.Entity {
	return core.NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.T("nv1"))),
		rtype.NewPattern(rtype.NewVariant(rtype.T("nv2"))))
}

// dupBox emits its record twice, x += delta and x += delta+100, in that
// order.
func dupBox(delta int) *core.Entity {
	sig := core.MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	return core.NewBox(fmt.Sprintf("dup%d", delta), sig, func(c *core.BoxCall) error {
		x := c.Field("x").(int)
		c.Emit(record.New().SetField("x", x+delta))
		c.Emit(record.New().SetField("x", x+delta+100))
		return nil
	})
}

// setTag builds [ {} -> {<name=v>} ].
func setTag(name string, v int) *core.Entity {
	return core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant()),
		Outputs: []core.FilterOutput{{SetTags: []core.TagAssign{constTag(name, v)}}},
	})
}

func constTag(name string, v int) core.TagAssign {
	return core.TagAssign{
		Name: name,
		Expr: func(*record.Record) int { return v },
		Src:  fmt.Sprintf("%s=%d", name, v),
	}
}

// guardXA is the a-branch guard [ {x,<a>} -> {x,<a>} ] (score 2).
func guardXA() *core.Entity {
	return core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("x"), rtype.T("a"))),
		Outputs: []core.FilterOutput{{CopyFields: []string{"x"}, CopyTags: []string{"a"}}},
	})
}

// guardX is the catch-all guard [ {x} -> {x} ] (score 1).
func guardX() *core.Entity {
	return core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
		Outputs: []core.FilterOutput{{CopyFields: []string{"x"}}},
	})
}
