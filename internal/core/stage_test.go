package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// foldIdiom builds the paper's Fig. 3 merger idiom as a fold, the shape a
// star runs as a chain of fused unfoldings: the first reading (<fst>) seeds
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
		"-> {<cnt>}  -- chain\n",
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

// TestFusedStarLinkBudget: a star over a sync-gated stage-tree operand is a
// chain — one driver goroutine, no link between unfoldings — so any number of
// unfoldings costs the instance's fixed links, not the five per unfolding of
// the tree as written.
func TestFusedStarLinkBudget(t *testing.T) {
	leakcheck.Check(t)
	links := func(lvl OptimizeLevel, n int) int {
		net, _ := foldIdiom(cntExit(n + 1))
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
	// First and last link and the serial's.
	for _, n := range []int{1, 32, 1000} {
		if got := links(OptimizeFull, n); got > 3 {
			t.Fatalf("chained: %d links for %d unfoldings, want <= 3", got, n)
		}
	}
	const n = 32 // below the link registry's sweep threshold: nothing folded
	if got := links(OptimizeOff, n); got < 5*n {
		t.Fatalf("as written: %d links for %d unfoldings, expected at least %d", got, n, 5*n)
	}
}

// TestStopFusedStarMidUnfoldLeakFree stops a fused merger-idiom star while
// it is still unfolding against an unread Out, accumulators parked in
// synchrocells of the chain's unfoldings: the driver must unwind.
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

// TestFusedUnfoldingAllocCeiling pins what one more unfolding of a chained
// star costs its driver: the synchrocell slots, fill counters and cursors,
// appended to the machine's state — at most one allocation (amortized, none),
// and nothing for an operand without state. The call context, the execution
// closure and the score cache are the machine's, once per driver. The
// per-stage slice sets this replaced moved allocs_per_op on the render and
// wire workloads past their 10% bound.
func TestFusedUnfoldingAllocCeiling(t *testing.T) {
	skipIfRace(t)
	net, _ := foldIdiom(cntExit(4))
	root, _ := Optimize(net)
	star := root.kids[1]
	if star.kind != kindStar || !star.chain {
		t.Fatalf("unexpected optimized shape:\n%s", root.Describe())
	}
	operand := star.kids[0]
	env := newEnv(Options{})
	var m *machine
	if got := testing.AllocsPerRun(200, func() { m = newMachine(env, operand) }); got > 2 {
		t.Fatalf("newMachine of sync..(box..filter|[]) = %v allocs, want <= 2", got)
	}
	if got := testing.AllocsPerRun(1000, func() { m.instantiate() }); got > 1 {
		t.Fatalf("one more unfolding of sync..(box..filter|[]) = %v allocs, want <= 1", got)
	}
	if m.use(1000); len(m.stored) != m.sb+2 || len(m.ints) != m.ib+2 || len(m.scores) < 2 {
		t.Fatalf("unfolding state not carved: %+v", m)
	}
	stateless, _ := Optimize(Serial(setTagFilter("p", 1), incBox("inc", 1)))
	m = newMachine(env, stateless)
	if got := testing.AllocsPerRun(1000, func() { m.instantiate() }); got != 0 {
		t.Fatalf("one more unfolding of a stateless operand = %v allocs, want 0", got)
	}
}

// counterStar is [{<n>} -> {<n+=1>}] * {<n> == <max>}: one filter-only
// unfolding per count.
func counterStar() *Entity {
	inc := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("n"))),
		Outputs: []FilterOutput{{SetTags: []TagAssign{{
			Name: "n",
			Expr: func(r *record.Record) int { v, _ := r.Tag("n"); return v + 1 },
			Src:  "n+=1",
		}}}},
	})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"), rtype.T("max"))).WithGuard(
		func(r *record.Record) bool {
			n, _ := r.Tag("n")
			max, _ := r.Tag("max")
			return n == max
		}, "<n> == <max>")
	return Star(inc, exit)
}

// TestStarChainDepthIsNotStackDepth: a chained star moves records between
// unfoldings through its worklist, so 100 000 unfoldings are a loop count in
// one goroutine — not 100 000 goroutines, and not 100 000 stack frames.
func TestStarChainDepthIsNotStackDepth(t *testing.T) {
	leakcheck.Check(t)
	const depth = 100_000
	n := NewNetwork(counterStar(), Options{})
	if n.OptStats().StarOperandsInlined != 1 {
		t.Fatalf("star not chained: %+v", n.OptStats())
	}
	idle := n.Start()
	before := runtime.NumGoroutine()
	inst := n.Start()
	perInstance := runtime.NumGoroutine() - before
	inst.Send(record.New().SetTag("n", 0).SetTag("max", depth))
	r := <-inst.Out
	if v, _ := r.Tag("n"); v != depth {
		t.Fatalf("<n> = %d, want %d", v, depth)
	}
	// Every unfolding exists now (the input is still open).
	if got := runtime.NumGoroutine() - before; got > perInstance+2 {
		t.Fatalf("%d goroutines after %d unfoldings, an idle instance has %d", got, depth, perInstance)
	}
	for _, i := range []*Instance{inst, idle} {
		if err := i.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStarChainFanoutKeepsBackpressure: a chain walks its unfoldings depth
// first and sends an exit match the moment it finds one, so a star that fans
// out — two records per pass, 2^16 leaves — is held back by an unread Out the
// way its per-unfolding links held it back: when the first leaf arrives only
// the passes on its way and what the links in front of the reader buffer have
// run, not the whole tree (which a breadth-first walk would hold in memory,
// wave by wave, before the first exit).
func TestStarChainFanoutKeepsBackpressure(t *testing.T) {
	leakcheck.Check(t)
	const rounds = 16
	var passes atomic.Int64
	inc := TagAssign{
		Name: "n",
		Expr: func(r *record.Record) int { v, _ := r.Tag("n"); return v + 1 },
		Src:  "n+=1",
	}
	fan := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(
			func(*record.Record) bool { passes.Add(1); return true }, "true"),
		Outputs: []FilterOutput{{SetTags: []TagAssign{inc}}, {SetTags: []TagAssign{inc}}},
	})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(
		func(r *record.Record) bool { v, _ := r.Tag("n"); return v == rounds }, "<n> == 16")
	n := NewNetwork(Star(fan, exit), Options{})
	if n.OptStats().StarOperandsInlined != 1 {
		t.Fatalf("star not chained: %+v", n.OptStats())
	}
	inst := n.Start()
	inst.Send(record.New().SetTag("n", 0))
	inst.CloseIn()
	<-inst.Out
	// Nobody reads on: the driver comes to rest against the full links.
	const total = 1<<rounds - 1
	if got := passes.Load(); got > total/8 {
		t.Fatalf("%d of %d passes had run when the first leaf arrived: the star is not held back by its reader", got, total)
	}
	leaves := 1
	for range inst.Out {
		leaves++
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	if leaves != 1<<rounds || passes.Load() != total {
		t.Fatalf("%d leaves after %d passes, want %d after %d", leaves, passes.Load(), 1<<rounds, total)
	}
}

// TestStopStarChainMidJourney: a record on a long way through a chain's
// unfoldings blocks on nothing — no link, no box — so the driver has to look
// for Stop itself.
func TestStopStarChainMidJourney(t *testing.T) {
	leakcheck.Check(t)
	inst := NewNetwork(counterStar(), Options{}).Start()
	inst.Send(record.New().SetTag("n", 0).SetTag("max", 1<<40))
	withTimeout(t, 5*time.Second, "Stop of a chain driver mid-journey", func() { inst.Stop() })
}

// TestStarChainControlRecordBehindData: a chained star finishes a record's
// whole way through its unfoldings before it takes the next one, so a control
// record leaves behind all the data that came in front of it and ahead of
// all that came after.
func TestStarChainControlRecordBehindData(t *testing.T) {
	leakcheck.Check(t)
	inst := NewNetwork(counterStar(), Options{}).Start()
	inst.Send(record.New().SetTag("n", 0).SetTag("max", 50))
	inst.Send(record.NewTrigger())
	inst.Send(record.New().SetTag("n", 0).SetTag("max", 3))
	inst.CloseIn()
	var got []int
	for r := range inst.Out {
		if !r.IsData() {
			got = append(got, -1)
			continue
		}
		v, _ := r.Tag("max")
		got = append(got, v)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []int{50, -1, 3}; !slices.Equal(got, want) {
		t.Fatalf("output order %v, want %v", got, want)
	}
}

// TestUngatedBoxStarStillPipelines: an operand that reaches its box without
// crossing a synchrocell keeps a goroutine per unfolding, so box executions
// of different unfoldings overlap — box stages are where the concurrency
// lives. Each execution waits (bounded) until it has seen company.
func TestUngatedBoxStarStillPipelines(t *testing.T) {
	leakcheck.Check(t)
	var inflight, high atomic.Int32
	company := make(chan struct{})
	var once sync.Once
	sig := MustSig([]rtype.Label{rtype.T("n")}, []rtype.Label{rtype.T("n")})
	box := NewBox("step", sig, func(c *BoxCall) error {
		if now := inflight.Add(1); now >= 2 {
			high.Store(now)
			once.Do(func() { close(company) })
		}
		select {
		case <-company:
		case <-time.After(2 * time.Second):
		}
		inflight.Add(-1)
		c.Emit(record.New().SetTag("n", c.Tag("n")+1))
		return nil
	})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(
		func(r *record.Record) bool { v, _ := r.Tag("n"); return v == 4 }, "<n> == 4")
	n := NewNetwork(Star(box, exit), Options{})
	if n.OptStats().StarOperandsInlined != 1 {
		t.Fatalf("star not chained: %+v", n.OptStats())
	}
	if root, _ := Optimize(n.Entity()); !strings.Contains(root.Describe(), "-- chain, hand-off at every unfolding: ungated box") {
		t.Fatalf("Describe does not name the hand-off reason:\n%s", root.Describe())
	}
	ins := make([]*record.Record, 8)
	for i := range ins {
		ins[i] = record.New().SetTag("n", 0)
	}
	outs, err := n.Run(ins...)
	if err != nil || len(outs) != len(ins) {
		t.Fatalf("outs=%d err=%v", len(outs), err)
	}
	if high.Load() < 2 {
		t.Fatalf("box executions never overlapped: high-water mark %d", high.Load())
	}
}

// TestFiredCellBoxStarPipelines: a synchrocell gates the box behind it only
// until it fires — from then on it is the identity and the box runs on every
// record that matches it. (cell..box)*{exit} with records that all match the
// box: the driver hands off behind an unfolding the first time its box runs
// on a record no join released, moving the deeper unfoldings' cells (one holds
// a record at that moment) to the new driver, so executions of different
// unfoldings overlap as they did with a goroutine each. The outcome is the
// unoptimized network's.
func TestFiredCellBoxStarPipelines(t *testing.T) {
	leakcheck.Check(t)
	var inflight, high atomic.Int32
	var wait atomic.Bool
	company := make(chan struct{})
	var once sync.Once
	sig := MustSig([]rtype.Label{rtype.F("x"), rtype.T("n")}, []rtype.Label{rtype.F("x"), rtype.T("n")})
	box := NewBox("step", sig, func(c *BoxCall) error {
		if now := inflight.Add(1); now >= 2 {
			high.Store(now)
			once.Do(func() { close(company) })
		}
		if wait.Load() {
			select {
			case <-company:
			case <-time.After(200 * time.Millisecond):
			}
		}
		inflight.Add(-1)
		c.Emit(record.New().SetField("x", c.Field("x")).SetTag("n", c.Tag("n")+1))
		return nil
	})
	cell := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
		rtype.NewPattern(rtype.NewVariant(rtype.T("go"))))
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(
		func(r *record.Record) bool { v, _ := r.Tag("n"); return v == 4 }, "<n> == 4")
	net := Star(Serial(cell, box), exit)
	run := func(lvl OptimizeLevel) []int {
		n := NewNetwork(net, Options{Optimize: lvl})
		if lvl == OptimizeFull {
			if n.OptStats().StarOperandsInlined != 1 {
				t.Fatalf("star not chained: %+v", n.OptStats())
			}
			if root, _ := Optimize(net); strings.Contains(root.Describe(), "ungated box") {
				t.Fatalf("the operand's box is behind a cell:\n%s", root.Describe())
			}
		}
		ins := make([]*record.Record, 16)
		for i := range ins {
			ins[i] = record.New().SetField("x", i).SetTag("go", 1).SetTag("n", 0)
		}
		outs, err := n.Run(ins...)
		if err != nil {
			t.Fatal(err)
		}
		var xs []int
		for _, r := range outs {
			if v, _ := r.Tag("n"); v != 4 {
				t.Fatalf("%s left the star", r)
			}
			x, _ := r.Field("x")
			xs = append(xs, x.(int))
		}
		slices.Sort(xs)
		return xs
	}
	want := run(OptimizeOff)
	if len(want) != 12 { // every unfolding's cell joins two records once
		t.Fatalf("as written: %d outputs %v, want 12", len(want), want)
	}
	high.Store(0)
	wait.Store(true)
	if got := run(OptimizeFull); !slices.Equal(got, want) {
		t.Fatalf("chained: outputs %v, as written %v", got, want)
	}
	if high.Load() < 2 {
		t.Fatalf("box executions never overlapped: high-water mark %d", high.Load())
	}
}

// TestSyncJoinAllocFree: a firing synchrocell owns what it stored, so the
// join is the first stored record merged in place — no copy. One allocation
// and ~330 B per join on the merger idiom, which joins once per record.
func TestSyncJoinAllocFree(t *testing.T) {
	skipIfRace(t)
	cell := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("acc"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("x"))))
	m := newMachine(newEnv(Options{}), cell)
	m.instantiate()
	m.use(0)
	acc, x := record.Intern("acc"), record.Intern("x")
	var one any = 1
	var dst [1]*record.Record
	got := testing.AllocsPerRun(1000, func() {
		a := recordPool.Get().SetFieldSym(acc, one).SetTag("cnt", 1)
		b := recordPool.Get().SetFieldSym(x, one)
		if outs := m.syncStep(&m.ent.stages[0], a, dst[:0]); len(outs) != 0 {
			t.Fatalf("cell released %v on its first record", outs)
		}
		outs := m.syncStep(&m.ent.stages[0], b, dst[:0])
		if len(outs) != 1 || outs[0] != a || !a.HasFieldSym(x) {
			t.Fatalf("join = %v, want the first stored record with {x} merged in", outs)
		}
		recycle(a)
		m.ints[0] = 0 // re-arm the cell
	})
	if got != 0 {
		t.Fatalf("store + join = %v allocs, want 0", got)
	}
}
