package netdiff

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// xrecs builds n records {x=i, <k=i%3>}, tag <a> on even i — the stream
// shape the whole corpus (and the generator) uses.
func xrecs(n int) func() []*record.Record {
	return func() []*record.Record {
		ins := make([]*record.Record, n)
		for i := range ins {
			b := record.Build().F("x", i).T("k", i%3)
			if i%2 == 0 {
				b = b.T("a", 1)
			}
			ins[i] = b.Rec()
		}
		return ins
	}
}

func inc(delta int) *core.Entity {
	sig := core.MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	return core.NewBox(fmt.Sprintf("inc%d", delta), sig, func(c *core.BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x").(int)+delta))
		return nil
	})
}

// TestFixedTopologies drives every combinator topology the core test
// suite exercises through the differential harness: the fused, flattened,
// pruned instantiation must be observably equal to the tree as built.
func TestFixedTopologies(t *testing.T) {
	cases := []struct {
		name    string
		ordered bool
		build   func() *core.Entity
		inputs  func() []*record.Record // nil: xrecs(18)
	}{
		{"serial-filters", true, func() *core.Entity {
			return core.SerialAll(setTag("p", 1), setTag("q", 2), setTag("r", 3))
		}, nil},
		{"serial-identities", true, func() *core.Entity {
			return core.SerialAll(core.Identity(), core.Identity(), core.Identity())
		}, nil},
		{"identity-box-sandwich", true, func() *core.Entity {
			return core.SerialAll(core.Identity(), inc(1), core.Identity(), inc(10), core.Identity())
		}, nil},
		{"filter-box-filter", true, func() *core.Entity {
			return core.SerialAll(setTag("p", 1), inc(1), setTag("q", 2))
		}, nil},
		{"box-chain", true, func() *core.Entity {
			return core.SerialAll(inc(1), inc(2), inc(3), inc(4))
		}, nil},
		{"fanout-chain", true, func() *core.Entity {
			return core.SerialAll(fanH(), setTag("p", 1), inc(1))
		}, nil},
		{"nested-choice-ties", false, func() *core.Entity {
			return core.Choice(
				core.Choice(core.Serial(guardX(), setTag("b0", 1)), core.Serial(guardX(), setTag("b1", 1))),
				core.Serial(guardX(), setTag("b2", 1)))
		}, nil},
		{"choice-guarded", false, func() *core.Entity {
			return core.Choice(
				core.Serial(guardXA(), setTag("ba", 1)),
				core.Serial(guardX(), setTag("bx", 1)))
		}, nil},
		{"choice-identity-branch", false, func() *core.Entity {
			return core.Choice(core.Serial(guardXA(), inc(5)), core.Identity())
		}, nil},
		{"choice-dominated-branch", false, func() *core.Entity {
			// After inc, every record matches {x}: the empty-pattern
			// branch is dominated and pruned; routing must not change.
			return core.Serial(inc(1), core.Choice(guardX(), core.Identity()))
		}, nil},
		{"nested-detchoice", true, func() *core.Entity {
			return core.DetChoice(
				core.DetChoice(core.Serial(guardX(), setTag("b0", 1)), core.Serial(guardX(), setTag("b1", 1))),
				core.Serial(guardX(), setTag("b2", 1)))
		}, nil},
		{"detchoice-identity-branch", true, func() *core.Entity {
			return core.DetChoice(core.Serial(guardXA(), inc(5)), core.Identity())
		}, nil},
		{"mixed-det-nondet-choice", false, func() *core.Entity {
			return core.Choice(
				core.DetChoice(core.Serial(guardXA(), setTag("da", 1)), core.Serial(guardX(), setTag("dx", 1))),
				core.Serial(guardX(), setTag("nx", 1)))
		}, nil},
		{"sync-firing", true, func() *core.Entity {
			return core.SerialAll(
				setTag("p", 1),
				core.NewSync(
					rtype.NewPattern(rtype.NewVariant(rtype.T("a"))),
					rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
				),
				setTag("q", 2))
		}, nil},
		{"sync-then-choice-no-pruning", false, func() *core.Entity {
			// The sync's loose output type must block pruning; dispatch
			// still has unique winners, so results stay equal.
			return core.Serial(idleSync(),
				core.Choice(core.Serial(guardXA(), setTag("ba", 1)), core.Serial(guardX(), setTag("bx", 1))))
		}, nil},
		{"star-countdown", false, func() *core.Entity {
			return starWrap("s", core.Serial(setTag("p", 1), inc(1)), 2)
		}, nil},
		{"star-chain-fanout", false, func() *core.Entity {
			// A filter-only operand runs as a chain; with a fan-out of two at
			// every tap the driver's stack holds records of several depths.
			return starWrap("s", fanH(), 3)
		}, nil},
		{"star-chain-gated-dup-box", false, func() *core.Entity {
			// Every unfolding's cell joins an <a>-record (its x renamed y on
			// the way in) with the next plain one, and the box runs on the
			// join only, {x, y} being the join's alone: its two emissions
			// cross the chain's worklist, not a hand-off link, and leave at
			// the next tap. What crosses a fired cell takes the identity and
			// skips the spent unfoldings; only it reaches the next
			// unfolding, in input order, on the tree as written too.
			cell := core.NewSync(
				rtype.NewPattern(rtype.NewVariant(rtype.F("y"))),
				rtype.NewPattern(rtype.NewVariant(rtype.F("x"))))
			guardXY := core.NewFilter("", core.FilterRule{
				Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("x"), rtype.F("y"))),
				Outputs: []core.FilterOutput{{CopyFields: []string{"x", "y"}}},
			})
			return core.Serial(
				core.Choice(core.NewFilter("", core.FilterRule{
					Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("x"), rtype.T("a"))),
					Outputs: []core.FilterOutput{{
						RenameFields: []core.Rename{{From: "x", To: "y"}},
						CopyTags:     []string{"a"},
					}},
				}), core.Identity()),
				core.Star(
					core.Serial(cell, core.Choice(core.Serial(guardXY, dupBox(1)), core.Identity())),
					rtype.NewPattern(rtype.NewVariant(rtype.F("x"), rtype.F("y")))))
		}, nil},
		{"star-fold-spent-prefix", false, func() *core.Entity {
			// The Fig. 3 fold: the accumulator meets one reading per
			// unfolding, and every unfolding in front of it is spent, so a
			// reading skips to it. The window closes after nine readings;
			// the rest come to rest in cells behind the spent prefix.
			return foldStar(10)
		}, foldRecs(18)},
		{"star-chain-spent-tie", false, func() *core.Entity {
			// Every record ties between [{} -> {<m=1>}] and [] in every
			// unfolding, fired or not: it skips nothing, so each unfolding's
			// round-robin cursor counts what reached it — the identity half
			// of what took the choice one unfolding up, in input order.
			cell := core.NewSync(
				rtype.NewPattern(rtype.NewVariant(rtype.T("a"))),
				rtype.NewPattern(rtype.NewVariant(rtype.T("k"))))
			return core.Star(
				core.Serial(cell, core.Choice(setTag("m", 1), core.Identity())),
				rtype.NewPattern(rtype.NewVariant(rtype.T("m"))))
		}, nil},
		{"star-chain-fired-cell-box", false, func() *core.Entity {
			// The cell of every unfolding fires on its first two records and
			// is the identity from then on, so the box runs ungated and the
			// driver hands off behind that unfolding — while deeper cells
			// hold records, which move to the new driver.
			cell := core.NewSync(
				rtype.NewPattern(rtype.NewVariant(rtype.T("k"))),
				rtype.NewPattern(rtype.NewVariant(rtype.F("x"))))
			return starWrap("s", core.Serial(cell, inc(1)), 3)
		}, nil},
		{"star-in-star", false, func() *core.Entity {
			return starWrap("s", starWrap("t", gated(core.Serial(guardXA(), inc(1))), 2), 2)
		}, nil},
		{"detchoice-over-star-chain", false, func() *core.Entity {
			// Records carry the det-choice's hidden sequence tag through a
			// chained star (flow inheritance in its box, the in-place join
			// otherwise); the merger needs it on every output.
			return core.DetChoice(
				core.Serial(guardXA(), starWrap("s", gated(core.Serial(guardXA(), inc(1))), 2)),
				core.Serial(guardX(), setTag("dx", 1)))
		}, nil},
		{"split", false, func() *core.Entity {
			return core.Split(core.Serial(setTag("p", 1), inc(1)), "k")
		}, nil},
		{"split-executor-sync-box", false, func() *core.Entity {
			// A stage-tree operand: one state block per key on executors.
			// Every key's cell joins its first <a>-record with the next
			// plain one and is the identity from then on.
			cell := core.NewSync(
				rtype.NewPattern(rtype.NewVariant(rtype.T("a"))),
				rtype.NewPattern(rtype.NewVariant(rtype.F("x"))))
			return core.Split(core.Serial(cell, inc(1)), "k")
		}, nil},
		{"split-executor-fanout-box", false, func() *core.Entity {
			// Two emissions per record from an executor, straight into the
			// split's output.
			return core.Split(core.Serial(setTag("p", 1), dupBox(1)), "k")
		}, nil},
		{"split-executor-star-tail", false, func() *core.Entity {
			// A stage tree feeding a chained star, the merger idiom's shape:
			// each key's state block holds the star's chain, walked by
			// whichever executor has the key, with records of several depths
			// on its stack.
			return core.Split(starWrap("s", fanH(), 3), "k")
		}, nil},
		{"split-executor-star-hand-off", false, func() *core.Entity {
			// Every key's cell fires on its first two records and is the
			// identity from then on, so the box runs ungated and the chain
			// hands off from inside the executor: a new driver, one more
			// sender on the split's output, takes the deeper unfoldings.
			cell := core.NewSync(
				rtype.NewPattern(rtype.NewVariant(rtype.T("k"))),
				rtype.NewPattern(rtype.NewVariant(rtype.F("x"))))
			return core.Split(starWrap("s", core.Serial(cell, inc(1)), 3), "k")
		}, nil},
		{"split-in-star-chain", false, func() *core.Entity {
			// Splits on executors are what each unfolding of the star
			// instantiates (a split is no stage tree, so this star spawns
			// its operand per unfolding); the cells behind the box never
			// fire, so every key's state block holds nothing at close.
			return starWrap("s", core.Split(core.Serial(inc(1), idleSync()), "k"), 3)
		}, nil},
		{"detsplit", true, func() *core.Entity {
			return core.DetSplit(core.Serial(setTag("p", 1), inc(1)), "k")
		}, nil},
		{"split-of-choice", false, func() *core.Entity {
			return core.Split(core.Choice(
				core.Serial(guardXA(), setTag("ba", 1)),
				core.Serial(guardX(), setTag("bx", 1))), "k")
		}, nil},
		{"choice-over-box-budget", false, func() *core.Entity {
			// Random seed 14: a choice whose branches hold two boxes between
			// them is over the fusion budget all by itself; the run scan must
			// emit it and move on (it once spun on it forever).
			return core.Serial(
				core.Choice(core.Serial(guardX(), inc(2)), core.Serial(guardX(), inc(2))),
				inc(3))
		}, nil},
		{"fused-choice-ties-in-chain", false, func() *core.Entity {
			// Equal-score branches inside a fused chain: record i must take
			// the branch the dispatcher goroutine's round-robin cursor would
			// have given it (arrival order is deterministic here, so the
			// per-branch multisets are).
			return core.SerialAll(
				setTag("p", 1),
				core.Choice(core.Serial(guardX(), setTag("b0", 1)), core.Serial(guardX(), setTag("b1", 1))),
				setTag("q", 2))
		}, nil},
		{"deep-mixed", false, func() *core.Entity {
			return core.SerialAll(
				setTag("p", 1),
				core.DetChoice(
					core.Serial(guardXA(), core.SerialAll(inc(1), setTag("da", 1))),
					core.Serial(guardX(), starWrap("s", inc(2), 1))),
				core.Identity(),
				setTag("q", 2))
		}, nil},
	}
	// Each topology runs plain and over an ingress journal: whatever the
	// optimizer made of the tree, every delivery completes and nothing is
	// dead-lettered.
	for _, tc := range cases {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", tc.name, durable), func(t *testing.T) {
				inputs := tc.inputs
				if inputs == nil {
					inputs = xrecs(18)
				}
				Check(t, tc.build(), Config{Ordered: tc.ordered, Durable: durable}, inputs)
			})
		}
	}
}

// fanH is [ {} -> {<h=0>}; {<h=1>} ], a fan-out of two.
func fanH() *core.Entity {
	return core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant()),
		Outputs: []core.FilterOutput{
			{SetTags: []core.TagAssign{constTag("h", 0)}},
			{SetTags: []core.TagAssign{constTag("h", 1)}},
		},
	})
}

// merger builds the paper's Fig. 3 merger idiom as a fold: per key <k>, the
// first reading seeds an accumulator, a synchrocell inside a star pairs the
// accumulator with the next reading, the fold box adds it, a tag filter
// counts, and the star exits when the count reaches <win> — one unfolding
// per folded reading. Readings of one key may pair up with the accumulator
// in any order; the sum does not care.
func merger() *core.Entity {
	seed := core.NewBox("seed",
		core.MustSig([]rtype.Label{rtype.F("x"), rtype.T("fst")}, []rtype.Label{rtype.F("acc")}),
		func(c *core.BoxCall) error {
			c.Emit(record.New().SetField("acc", c.Field("x")))
			return nil
		})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("cnt"), rtype.T("win"))).
		WithGuard(func(r *record.Record) bool {
			c, _ := r.Tag("cnt")
			w, _ := r.Tag("win")
			return c == w
		}, "<cnt> == <win>")
	return core.Split(core.Serial(
		core.Choice(core.Serial(seed, setTag("cnt", 1)), core.Identity()),
		core.Star(foldBody(), exit)), "k")
}

// foldBody is the merger idiom's star operand: a synchrocell pairs the
// accumulator <cnt> {acc} with a reading {x}, the fold box adds it and a
// filter counts; what the cell passes takes the identity.
func foldBody() *core.Entity {
	fold := core.NewBox("fold",
		core.MustSig([]rtype.Label{rtype.F("acc"), rtype.F("x")}, []rtype.Label{rtype.F("acc")}),
		func(c *core.BoxCall) error {
			c.Emit(record.New().SetField("acc", c.Field("acc").(int)+c.Field("x").(int)))
			return nil
		})
	count := core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("cnt"))),
		Outputs: []core.FilterOutput{{SetTags: []core.TagAssign{{
			Name: "cnt",
			Expr: func(r *record.Record) int { v, _ := r.Tag("cnt"); return v + 1 },
			Src:  "cnt+=1",
		}}}},
	})
	return core.Serial(
		core.NewSync(
			rtype.NewPattern(rtype.NewVariant(rtype.F("acc"))),
			rtype.NewPattern(rtype.NewVariant(rtype.F("x")))),
		core.Choice(core.Serial(fold, count), core.Identity()))
}

// foldStar is merger's star standing alone, leaving when <cnt> reaches win.
func foldStar(win int) *core.Entity {
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("cnt"))).
		WithGuard(func(r *record.Record) bool { c, _ := r.Tag("cnt"); return c >= win }, fmt.Sprintf("<cnt> >= %d", win))
	return core.Star(foldBody(), exit)
}

// foldRecs is an accumulator <cnt=1> {acc=100} and n-1 readings {x=i}.
func foldRecs(n int) func() []*record.Record {
	return func() []*record.Record {
		ins := []*record.Record{record.Build().F("acc", 100).T("cnt", 1).Rec()}
		for i := 1; i < n; i++ {
			ins = append(ins, record.Build().F("x", i).Rec())
		}
		return ins
	}
}

// mergerInputs is three keys' windows of unfold+1 readings each,
// interleaved, plus a fourth key that stops one reading early, so its
// accumulator is still waiting in a synchrocell when the input closes.
func mergerInputs(unfold int) func() []*record.Record {
	return func() []*record.Record {
		const keys = 4
		var ins []*record.Record
		for i := 0; i <= unfold; i++ {
			for k := 0; k < keys; k++ {
				if k == 3 && i == unfold {
					continue
				}
				b := record.Build().F("x", 100*k+i).T("k", k).T("win", unfold+1)
				if i == 0 {
					b = b.T("fst", 1)
				}
				ins = append(ins, b.Rec())
			}
		}
		return ins
	}
}

// TestMergerIdiom runs the Fig. 3 idiom — the shape a star unfolding fuses
// into one goroutine — at 1, 16 and 64 unfoldings, record-at-a-time and
// batched links, with and without the ingress journal; one window stops
// short, so a synchrocell still holds a record when the input closes.
func TestMergerIdiom(t *testing.T) {
	for _, unfold := range []int{1, 16, 64} {
		for _, bs := range []int{1, 16} {
			for _, durable := range []bool{false, true} {
				name := fmt.Sprintf("unfold%d/batch%d/durable=%v", unfold, bs, durable)
				t.Run(name, func(t *testing.T) {
					Check(t, merger(), Config{
						Opts:    core.Options{BatchSize: bs},
						Durable: durable,
					}, mergerInputs(unfold))
				})
			}
		}
	}
}

// TestMergerIdiomPlacedTransfers runs one window of the idiom, wrapped in
// SplitAt(…, "k"), on a four-node dist.Cluster under RoundRobin: the one
// replica for <k=0> is placed on node 1, and the whole star runs there with
// it. The only charged transfers are the records that cross the !@
// boundary: the window's unfold+1 readings out, one accumulator back. That
// count does not depend on arrival order, and is the same with and without
// the optimizer.
func TestMergerIdiomPlacedTransfers(t *testing.T) {
	const unfold = 16
	const wantTransfers = unfold + 2
	inputs := func() []*record.Record {
		var ins []*record.Record
		for i := 0; i <= unfold; i++ {
			b := record.Build().F("x", i).T("k", 0).T("win", unfold+1)
			if i == 0 {
				b = b.T("fst", 1)
			}
			ins = append(ins, b.Rec())
		}
		return ins
	}
	for _, lvl := range []core.OptimizeLevel{core.OptimizeOff, core.OptimizeFull} {
		t.Run(fmt.Sprintf("optimize=%d", lvl), func(t *testing.T) {
			leakcheck.Check(t)
			cluster := dist.NewCluster(4, 2)
			rr := &core.RoundRobin{}
			rr.Place(0, 4, nil) // the cursor's next node is 1, not the split's node 0
			outs, err := core.NewNetwork(core.SplitAt(merger(), "k"), core.Options{
				Optimize: lvl, Platform: cluster, Placer: rr,
			}).Run(inputs()...)
			if err != nil || len(outs) != 1 {
				t.Fatalf("outs=%v err=%v", outs, err)
			}
			if acc, _ := outs[0].Field("acc"); acc != unfold*(unfold+1)/2 {
				t.Fatalf("acc = %v, want %d", acc, unfold*(unfold+1)/2)
			}
			st := cluster.Stats()
			if got := st.Transfers; got != wantTransfers {
				t.Fatalf("Stats.Transfers = %d, want %d", got, wantTransfers)
			}
			// One seed and unfold folds, all on the placed node.
			if st.Execs[1] != unfold+1 {
				t.Fatalf("execs %v, want all %d box executions on node 1", st.Execs, unfold+1)
			}
		})
	}
}

// TestSyncCloseBeforeFusedStages closes a synchrocell that holds a record,
// with stages fused behind the cell (a fan-out filter, then a stamp): the
// record is discarded and its delivery must complete. The fused tree and
// the tree as written agree, with and without the journal.
func TestSyncCloseBeforeFusedStages(t *testing.T) {
	build := func() *core.Entity {
		return core.SerialAll(
			setTag("p", 1),
			// Holds the first a-record; <nv> never comes.
			core.NewSync(
				rtype.NewPattern(rtype.NewVariant(rtype.T("a"))),
				rtype.NewPattern(rtype.NewVariant(rtype.T("nv")))),
			fanH(),
			setTag("q", 2))
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			Check(t, build(), Config{Ordered: true, Durable: durable}, xrecs(6))
		})
	}
}

// TestErrorEquivalence feeds a record that matches no filter rule: the
// fused instantiation must report the type error exactly like the plain
// one (and neither may leak).
func TestErrorEquivalence(t *testing.T) {
	narrow := core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("missing"))),
	})
	e := core.Serial(setTag("p", 1), narrow)
	Check(t, e, Config{}, xrecs(4))
}

// TestDetBatchSizes runs the deterministic corpus across transport batch
// sizes 1–16: sequence preservation under fusion and flattening must not
// depend on batch boundaries (extends the PR 4/5 determinism matrix to
// the optimizer).
func TestDetBatchSizes(t *testing.T) {
	build := func() *core.Entity {
		return core.SerialAll(
			setTag("p", 1),
			core.DetChoice(
				core.DetChoice(core.Serial(guardXA(), inc(1)), core.Serial(guardX(), inc(2))),
				core.Serial(guardX(), setTag("b2", 1))),
			core.DetSplit(core.Serial(inc(3), setTag("q", 2)), "k"))
	}
	for _, bs := range []int{1, 2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("batch%d", bs), func(t *testing.T) {
			Check(t, build(), Config{Ordered: true, Opts: core.Options{BatchSize: bs}}, xrecs(24))
		})
	}
}

// TestRandomNetworks drives seeded random combinator trees through the
// harness. The seed count is SNET_NETDIFF_SEEDS (default 32; CI runs a
// larger budget under -race). A failing case is identified by its seed in
// the subtest name — rerun with -run 'TestRandomNetworks/seed42'.
func TestRandomNetworks(t *testing.T) {
	seeds := 32
	if s := os.Getenv("SNET_NETDIFF_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SNET_NETDIFF_SEEDS=%q: %v", s, err)
		}
		seeds = n
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			g := Generate(int64(seed))
			t.Logf("seed %d: %s", seed, g.Desc)
			Check(t, g.Entity, Config{Ordered: g.Ordered}, g.Inputs)
		})
	}
}
