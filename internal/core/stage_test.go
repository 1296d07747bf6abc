package core

import (
	"strings"
	"testing"
	"time"

	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// foldIdiom builds the paper's Fig. 3 merger idiom as a fold, the shape a
// star unfolding fuses into one goroutine: the first reading (<fst>) seeds
// an accumulator with <cnt=1>, a synchrocell in a star pairs the
// accumulator with the next reading, fold adds it, a filter counts, and the
// star exits at exit. It returns the whole net and the star's operand.
func foldIdiom(exit *rtype.Pattern) (net, operand *Entity) {
	seed := NewBox("seed",
		MustSig([]rtype.Label{rtype.F("x"), rtype.T("fst")}, []rtype.Label{rtype.F("acc")}),
		func(c *BoxCall) error {
			c.Emit(record.New().SetField("acc", c.Field("x")))
			return nil
		})
	fold := NewBox("fold",
		MustSig([]rtype.Label{rtype.F("acc"), rtype.F("x")}, []rtype.Label{rtype.F("acc")}),
		func(c *BoxCall) error {
			c.Emit(record.New().SetField("acc", c.Field("acc").(int)+c.Field("x").(int)))
			return nil
		})
	count := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("cnt"))),
		Outputs: []FilterOutput{{SetTags: []TagAssign{{
			Name: "cnt",
			Expr: func(r *record.Record) int { v, _ := r.Tag("cnt"); return v + 1 },
			Src:  "cnt+=1",
		}}}},
	})
	operand = Serial(
		NewSync(
			rtype.NewPattern(rtype.NewVariant(rtype.F("acc"))),
			rtype.NewPattern(rtype.NewVariant(rtype.F("x")))),
		Choice(Serial(fold, count), Identity()))
	net = Serial(
		Choice(Serial(seed, setTagFilter("cnt", 1)), Identity()),
		Star(operand, exit))
	return net, operand
}

// cntExit is the idiom's exit {<cnt>} if <cnt> >= n.
func cntExit(n int) *rtype.Pattern {
	return rtype.NewPattern(rtype.NewVariant(rtype.T("cnt"))).WithGuard(
		func(r *record.Record) bool { v, _ := r.Tag("cnt"); return v >= n }, "<cnt> >= n")
}

// foldReadings is one window of n readings 1..n; the first seeds.
func foldReadings(n int) []*record.Record {
	ins := make([]*record.Record, n)
	for i := range ins {
		ins[i] = record.New().SetField("x", i+1)
	}
	ins[0].SetTag("fst", 1)
	return ins
}

func TestFusedMergerIdiom(t *testing.T) {
	leakcheck.Check(t)
	const n = 16
	net, _ := foldIdiom(cntExit(n))
	outs, st := optRun(t, net, OptimizeFull, foldReadings(n)...)
	if len(outs) != 1 {
		t.Fatalf("outs = %v, want one sum", outs)
	}
	if acc, _ := outs[0].Field("acc"); acc != n*(n+1)/2 {
		t.Fatalf("acc = %v, want %d", acc, n*(n+1)/2)
	}
	if st.SyncsFused != 1 || st.ChoicesFused != 2 || st.StarOperandsInlined != 1 {
		t.Fatalf("stats = %+v, want 1 sync, 2 choices fused and 1 star operand inlined", st)
	}
	// seed..filter and fold..filter are the only filter/box boundaries: the
	// sync|choice boundary is none of the three counters'.
	if st.BoxFilterFused != 2 || st.FilterFilterFused != 0 || st.FilterBoxFused != 0 {
		t.Fatalf("boundary counters = %+v", st)
	}
	// serial + fused choice + star + fused operand.
	if st.EntitiesAfter != 4 {
		t.Fatalf("EntitiesAfter = %d, want 4: %+v", st.EntitiesAfter, st)
	}
}

func TestFusedDescribeStageTree(t *testing.T) {
	net, _ := foldIdiom(cntExit(4))
	root, _ := Optimize(net)
	d := root.Describe()
	for _, want := range []string{
		"sync [|{acc}, {x}|]  ::",
		"choice (fused(fold..",
		"| fused(fold..",
		"box fold  ::",
		"filter [{<cnt>} -> {<cnt+=1>}]  ::",
		"| []  ::",
	} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}

// TestFusedChoiceNoMatchNamesChoice: a record no branch of an in-stack
// choice takes is reported against the choice as written, like the
// dispatcher goroutine reports it.
func TestFusedChoiceNoMatchNamesChoice(t *testing.T) {
	leakcheck.Check(t)
	narrow := func(tag string) *Entity {
		return NewFilter("", FilterRule{
			Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T(tag))),
			Outputs: []FilterOutput{{CopyTags: []string{tag}}},
		})
	}
	e := Serial(setTagFilter("p", 1), Choice(narrow("a"), narrow("b")))
	var msgs [2]string
	for i, lvl := range []OptimizeLevel{OptimizeOff, OptimizeFull} {
		n := NewNetwork(e, Options{Optimize: lvl})
		if lvl == OptimizeFull && n.OptStats().ChoicesFused != 1 {
			t.Fatalf("choice not fused: %+v", n.OptStats())
		}
		inst := n.Start()
		inst.Send(record.New().SetTag("c", 1))
		inst.Close()
		rep := inst.Errs()
		if len(rep.Retained) != 1 || rep.Retained[0].Category != ErrCatNoMatch {
			t.Fatalf("level %d: errors = %+v", lvl, rep)
		}
		if got, want := rep.Retained[0].Entity, "([{<a>} -> {<a>}]|[{<b>} -> {<b>}])"; got != want {
			t.Fatalf("level %d: error names %q, want %q", lvl, got, want)
		}
		msgs[i] = rep.Retained[0].Error()
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("no-match report differs:\n  as written: %s\n  fused:      %s", msgs[0], msgs[1])
	}
}

// TestFusedStarLinkBudget: an unfolding of a star over a fused operand is
// one link (tap to next tap), so n unfoldings cost n links plus the
// instance's fixed ones — not the five per unfolding of the tree as written.
func TestFusedStarLinkBudget(t *testing.T) {
	leakcheck.Check(t)
	const n = 32 // below the link registry's sweep threshold: nothing folded
	net, _ := foldIdiom(cntExit(n + 1))
	links := func(lvl OptimizeLevel) int {
		inst := NewNetwork(net, Options{Optimize: lvl}).Start()
		for _, r := range foldReadings(n + 1) {
			inst.Send(r)
		}
		// The sum is out once every unfolding exists; the input is still
		// open, so no link has finished and been folded away.
		r := <-inst.Out
		if acc, _ := r.Field("acc"); acc != (n+1)*(n+2)/2 {
			t.Fatalf("level %d: acc = %v", lvl, acc)
		}
		got := len(inst.LinkStats())
		if err := inst.Close(); err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		return got
	}
	// First and last link, the serial's, and one per unfolding.
	if got := links(OptimizeFull); got < n || got > n+3 {
		t.Fatalf("fused: %d links for %d unfoldings, want %d..%d", got, n, n, n+3)
	}
	if got := links(OptimizeOff); got < 5*n {
		t.Fatalf("as written: %d links for %d unfoldings, expected at least %d", got, n, 5*n)
	}
}

// TestStopFusedStarMidUnfoldLeakFree stops a fused merger-idiom star while
// it is still unfolding against an unread Out, accumulators parked in
// synchrocells of in-stack operands: every tap goroutine must unwind.
func TestStopFusedStarMidUnfoldLeakFree(t *testing.T) {
	leakcheck.Check(t)
	net, _ := foldIdiom(cntExit(1_000_000))
	n := NewNetwork(net, Options{BufferSize: 1})
	if n.OptStats().StarOperandsInlined != 1 {
		t.Fatalf("star operand not inlined: %+v", n.OptStats())
	}
	inst := n.Start()
	saturate(t, inst, 256, func(i int) *record.Record {
		r := record.New().SetField("x", i)
		if i == 0 {
			r.SetTag("fst", 1)
		}
		return r
	})
	withTimeout(t, 5*time.Second, "Stop of an unfolding fused star", func() { inst.Stop() })
}

// TestFusedUnfoldingAllocCeiling pins what instantiating one fused star
// unfolding's operand costs: the machine (call context, synchrocell slots,
// dispatch scores and cursors all inline) and the box execution closure.
// The per-stage slice sets this replaced moved allocs_per_op on the render
// and wire workloads past their 10% bound.
func TestFusedUnfoldingAllocCeiling(t *testing.T) {
	skipIfRace(t)
	net, _ := foldIdiom(cntExit(4))
	root, _ := Optimize(net)
	star := root.kids[1]
	if star.kind != kindStar || !star.inline {
		t.Fatalf("unexpected optimized shape:\n%s", root.Describe())
	}
	operand := star.kids[0]
	env := newEnv(Options{})
	var m *machine
	if got := testing.AllocsPerRun(200, func() { m = newMachine(env, operand) }); got > 2 {
		t.Fatalf("newMachine of sync..(box..filter|[]) = %v allocs, want <= 2", got)
	}
	if len(m.stored) < 2 || len(m.scores) < 2 || len(m.filled) != 1 || len(m.cursors) < 1 {
		t.Fatalf("machine state not carved: %+v", m)
	}
}
