package core

import (
	"slices"
	"testing"

	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// chainedStar returns the chained star of the optimized net.
func chainedStar(t *testing.T, net *Entity) *Entity {
	t.Helper()
	root, _ := Optimize(net)
	var found *Entity
	var visit func(e *Entity)
	visit = func(e *Entity) {
		if e.kind == kindStar && e.chain && found == nil {
			found = e
		}
		for _, k := range e.kids {
			visit(k)
		}
	}
	visit(root)
	if found == nil {
		t.Fatalf("no chained star in:\n%s", root.Describe())
	}
	return found
}

// walker runs one chain of a chained star by hand: each record is walked
// through it by star.pass in the test's goroutine, the driver's routine.
type walker struct {
	s    *star
	c    chain
	work []chainItem
}

func newWalker(t *testing.T, net *Entity) *walker {
	t.Helper()
	st := chainedStar(t, net)
	env := newEnv(Options{BufferSize: 64})
	s := &star{env: env, a: st.kids[0], exit: st.exit, out: env.newLink()}
	return &walker{s: s, c: s.newChain()}
}

// walk walks r through the chain and returns what left the star at the
// walk's last step, if anything; nothing may leave before it.
func (w *walker) walk(t *testing.T, r *record.Record) *record.Record {
	t.Helper()
	final, work, ok := w.s.pass(&w.c, append(w.work, chainItem{r, 0}))
	w.work = work
	if !ok {
		t.Fatal("pass reported a stop")
	}
	if n := w.s.out.Stats().SentRecords; n != 0 {
		t.Fatalf("%d records left the star before the walk's end", n)
	}
	return final
}

// foldWindow walks the fold idiom's accumulator <cnt=1> {acc=1} and then the
// readings 2..n through w; it returns what left the star.
func foldWindow(t *testing.T, w *walker, n int) *record.Record {
	t.Helper()
	out := w.walk(t, record.New().SetField("acc", 1).SetTag("cnt", 1))
	for x := 2; x <= n; x++ {
		if out != nil {
			t.Fatalf("%s left the star before reading %d", out, x)
		}
		out = w.walk(t, record.New().SetField("x", x))
	}
	return out
}

// TestSpentMergerWindowIsLinear: in the Fig. 3 merger idiom, reading j of a
// window finds the cells of the j-2 unfoldings in front of the accumulator
// fired and crosses them unchanged, so it skips them: the accumulator's
// store, then per reading the first unfolding, the join and the store one
// deeper — 3n-4 unfoldings run for an n-reading window, where walking every
// spent one ran ~n²/2.
func TestSpentMergerWindowIsLinear(t *testing.T) {
	for _, n := range []int{16, 64} {
		net, _ := foldIdiom(cntExit(n))
		w := newWalker(t, net)
		out := foldWindow(t, w, n)
		if out == nil {
			t.Fatalf("n=%d: the window's sum never left the star", n)
		}
		if acc, _ := out.Field("acc"); acc != n*(n+1)/2 {
			t.Fatalf("n=%d: acc = %v, want %d", n, acc, n*(n+1)/2)
		}
		if w.c.steps != 3*n-4 {
			t.Fatalf("n=%d: %d unfoldings run, want %d", n, w.c.steps, 3*n-4)
		}
		if w.c.spent != w.c.n || w.c.n != n-1 {
			t.Fatalf("n=%d: spent %d of %d unfoldings, want all %d", n, w.c.spent, w.c.n, n-1)
		}
	}
}

// tieStar is ([|{<a>}, {<b>}|] .. ([{} -> {<m=1>}] | [])) * {<m>}: every
// record ties at every choice, so the round-robin cursor of each unfolding
// decides whether it leaves at the next tap or goes one unfolding deeper.
func tieStar() *Entity {
	mark := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant()),
		Outputs: []FilterOutput{{SetTags: []TagAssign{{
			Name: "m", Expr: func(*record.Record) int { return 1 }, Src: "m=1",
		}}}},
	})
	cell := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.T("a"))),
		rtype.NewPattern(rtype.NewVariant(rtype.T("b"))))
	return Star(Serial(cell, Choice(mark, Identity())), rtype.NewPattern(rtype.NewVariant(rtype.T("m"))))
}

func tieRecs(n int) []*record.Record {
	ins := make([]*record.Record, n)
	for i := range ins {
		ins[i] = record.New().SetTag("a", 1).SetTag("b", 1).SetTag("id", i)
	}
	return ins
}

func ids(t *testing.T, rs []*record.Record) []int {
	t.Helper()
	var out []int
	for _, r := range rs {
		v, ok := r.Tag("id")
		if !ok {
			t.Fatalf("%s has no <id>", r)
		}
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestSpentTieNoJump: a record that breaks a tie in a spent unfolding has
// moved that unfolding's cursor, and would move the cursor of every spent
// unfolding behind it too, so it does not skip them. Each unfolding's cursor
// counts the records that reached its choice, as the dispatcher goroutine of
// the tree as written counts them, and the outputs are the tree as written's.
func TestSpentTieNoJump(t *testing.T) {
	leakcheck.Check(t)
	const n = 24
	w := newWalker(t, tieStar())
	var got []*record.Record
	for _, r := range tieRecs(n) {
		if out := w.walk(t, r); out != nil {
			got = append(got, out)
		}
	}
	if w.c.spent < 2 {
		t.Fatalf("spent prefix %d: the test needs a tie behind a spent unfolding", w.c.spent)
	}
	// Unfolding k gets what took the identity at k-1 (every second tie, the
	// mark first); the first stores, the second joins, and everything but
	// the first reaches the choice.
	m := w.c.m
	arrived, steps := n, 0
	for k := 0; k < w.c.n; k++ {
		steps += arrived
		want := max(0, arrived-1)
		if c := m.ints[k*m.ent.layout.ints()+m.ent.layout.syncs]; c != want {
			t.Fatalf("unfolding %d: cursor %d, want %d", k, c, want)
		}
		arrived = want / 2
	}
	if w.c.steps != steps {
		t.Fatalf("%d unfoldings run, want %d: every record walks every unfolding", w.c.steps, steps)
	}
	for _, lvl := range []OptimizeLevel{OptimizeOff, OptimizeFull} {
		outs, _ := optRun(t, tieStar(), lvl, tieRecs(n)...)
		if !slices.Equal(ids(t, outs), ids(t, got)) {
			t.Fatalf("optimize level %d: outputs %v, the walk's %v", lvl, ids(t, outs), ids(t, got))
		}
	}
}

// TestSpentRunNotAPrefix: unfolding 1 fires while unfolding 0 still holds a
// record, so the spent prefix stays empty and a record crossing 0 unchanged
// walks into 1 — until 0 fires, when the prefix takes in 0 and 1 at once
// and the next such record skips 1.
//
// The star is (([{<p>} -> {<q>}; {<s>} -> {<r>}] | [|{<r>}, {<q>}|] | [])
// * {<q>, <r>}: a <p> or <s> record is renamed at unfolding 0 and meets the
// cell of unfolding 1 first.
func TestSpentRunNotAPrefix(t *testing.T) {
	set := func(tag string) FilterOutput {
		return FilterOutput{SetTags: []TagAssign{{Name: tag, Expr: func(*record.Record) int { return 1 }, Src: tag + "=1"}}}
	}
	rename := NewFilter("",
		FilterRule{Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("p"))), Outputs: []FilterOutput{set("q")}},
		FilterRule{Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("s"))), Outputs: []FilterOutput{set("r")}})
	cell := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.T("r"))),
		rtype.NewPattern(rtype.NewVariant(rtype.T("q"))))
	net := Star(Choice(rename, cell, Identity()), rtype.NewPattern(rtype.NewVariant(rtype.T("q"), rtype.T("r"))))
	w := newWalker(t, net)
	rec := func(tag string, id int) *record.Record { return record.New().SetTag(tag, 1).SetTag("id", id) }
	step := func(r *record.Record, wantOut, wantSteps, wantN, wantSpent int) {
		t.Helper()
		before := w.c.steps
		out := w.walk(t, r)
		id := -1
		if out != nil {
			id, _ = out.Tag("id")
		}
		if id != wantOut || w.c.steps-before != wantSteps || w.c.n != wantN || w.c.spent != wantSpent {
			t.Fatalf("%s: left %d after %d unfoldings, chain of %d with %d spent; want %d, %d, %d, %d",
				r, id, w.c.steps-before, w.c.n, w.c.spent, wantOut, wantSteps, wantN, wantSpent)
		}
	}
	step(rec("q", 5), -1, 1, 1, 0) // stored at 0
	step(rec("s", 0), -1, 2, 2, 0) // renamed <r>, stored at 1
	step(rec("p", 1), 0, 2, 2, 0)  // renamed <q>, joins at 1
	if !w.c.m.fired(1) || w.c.m.fired(0) {
		t.Fatal("want unfolding 1 fired, 0 not")
	}
	step(rec("q", 7), -1, 3, 3, 0) // crosses 0 and the fired 1, stored at 2
	step(rec("r", 8), 8, 1, 3, 2)  // joins at 0: 0 and 1 are spent now
	step(rec("q", 9), -1, 3, 4, 2) // skips 1, crosses 2, stored at 3
}

// TestSpentPureIsTheRecordUnchanged: a crossing can hand on the very record
// it was given and still not be pure, so the pointer alone does not decide:
// a join that stores the record in its first slot releases it merged, and a
// box may re-emit its input.
func TestSpentPureIsTheRecordUnchanged(t *testing.T) {
	env := newEnv(Options{})
	cross := func(e *Entity, m *machine, r *record.Record) bool {
		t.Helper()
		m.pure = true
		if !m.run(e.stages, r, nil) {
			t.Fatal("run reported a stop")
		}
		if len(m.call.pending) != 1 || m.call.pending[0] != r {
			t.Fatalf("%s came out as %v", r, m.call.pending)
		}
		m.call.pending = m.call.pending[:0]
		return m.pure
	}
	cell := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.T("a"))),
		rtype.NewPattern(rtype.NewVariant(rtype.T("b"))))
	m := newMachine(env, cell)
	m.instantiate()
	m.use(0)
	if m.pure = true; !m.run(cell.stages, record.New().SetTag("b", 1), nil) || m.pure {
		t.Fatal("storing in a cell was pure")
	}
	if cross(cell, m, record.New().SetTag("a", 1)) {
		t.Fatal("a join released in place was pure")
	}
	if !cross(cell, m, record.New().SetTag("a", 1)) {
		t.Fatal("crossing a fired cell was not pure")
	}
	echo := NewBox("echo", MustSig([]rtype.Label{rtype.T("a")}, []rtype.Label{rtype.T("a")}),
		func(c *BoxCall) error { c.Emit(c.In); return nil })
	m = newMachine(env, echo)
	m.instantiate()
	m.use(0)
	if cross(echo, m, record.New().SetTag("a", 1)) {
		t.Fatal("a box that re-emits its input was pure")
	}
}

// TestSpentCutSplitsThePrefix: a hand-off cut behind unfolding k leaves the
// driver the first k unfoldings with their part of the spent prefix and
// gives the new driver the rest with its own; a record crossing the spent
// unfoldings of a chain with a hand-off skips no further than the last of
// them, whose output goes over the hand-off.
func TestSpentCutSplitsThePrefix(t *testing.T) {
	net, _ := foldIdiom(cntExit(1000))
	w := newWalker(t, net)
	foldWindow(t, w, 10) // 0..8 fired, the accumulator waits at 9
	if w.c.n != 10 || w.c.spent != 9 {
		t.Fatalf("chain of %d with %d spent, want 10 with 9", w.c.n, w.c.spent)
	}
	rest := w.c.cut(4)
	if w.c.n != 4 || w.c.spent != 4 || rest.n != 6 || rest.spent != 5 || w.c.next != nil {
		t.Fatalf("cut(4): kept %d with %d spent, rest %d with %d spent", w.c.n, w.c.spent, rest.n, rest.spent)
	}
	env := w.s.env
	w.c.next = env.newLink()
	r := record.New().SetField("x", 11)
	before := w.c.steps
	if out := w.walk(t, r); out != nil {
		t.Fatalf("%s left the star", out)
	}
	if w.c.steps-before != 2 || w.c.n != 4 {
		t.Fatalf("%d unfoldings run, chain of %d; want 2 (first and last), 4", w.c.steps-before, w.c.n)
	}
	if got, ok := w.c.next.Recv(env.done); !ok || got != r {
		t.Fatalf("hand-off got %v, want %s", got, r)
	}
	// The rest skips to its accumulator, which folds the reading in.
	w2 := &walker{s: w.s, c: rest}
	if out := w2.walk(t, r); out != nil {
		t.Fatalf("%s left the star", out)
	}
	if rest := w2.c; rest.steps != 3 || rest.n != 7 || rest.spent != 6 {
		t.Fatalf("rest: %d unfoldings run, chain of %d with %d spent; want 3, 7, 6", rest.steps, rest.n, rest.spent)
	}
	// A cut behind the last unfolding, where the spent prefix ends one
	// short of it: nothing of the prefix goes.
	w = newWalker(t, net)
	foldWindow(t, w, 4)
	if rest := w.c.cut(4); rest.n != 0 || rest.spent != 0 || w.c.spent != 3 {
		t.Fatalf("cut(4) of 4 with 3 spent: rest %d with %d spent, kept %d spent", rest.n, rest.spent, w.c.spent)
	}
}

// TestSpentJumpAcrossHandOffs: a ping {acc, z, <cnt=0>, <ping>} is renamed
// {acc, x} at the first unfolding and runs the fold box at the second without
// a join, both spent by then, so the driver hands off behind the second; the
// window's readings go on skipping spent unfoldings — in the first driver no
// further than its last unfolding, in the new drivers up to the accumulator
// — and meet the accumulator where it is. Run under the drivers.
func TestSpentJumpAcrossHandOffs(t *testing.T) {
	leakcheck.Check(t)
	const n = 24
	fold := NewBox("fold",
		MustSig([]rtype.Label{rtype.F("acc"), rtype.F("x")}, []rtype.Label{rtype.F("acc")}),
		func(c *BoxCall) error {
			c.Emit(record.New().SetField("acc", c.Field("acc").(int)+c.Field("x").(int)))
			return nil
		})
	count := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("cnt"))),
		Outputs: []FilterOutput{{SetTags: []TagAssign{{
			Name: "cnt", Expr: func(r *record.Record) int { v, _ := r.Tag("cnt"); return v + 1 }, Src: "cnt+=1",
		}}}},
	})
	rename := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("z"))),
		Outputs: []FilterOutput{{RenameFields: []Rename{{From: "z", To: "x"}}}},
	})
	exit := rtype.NewPattern(rtype.NewVariant()).WithGuard(func(r *record.Record) bool {
		c, _ := r.Tag("cnt")
		return c >= n || c > 0 && r.HasTag("ping")
	}, "<cnt> >= n || <cnt> > 0 && <ping>")
	net := Star(Serial(
		NewSync(
			rtype.NewPattern(rtype.NewVariant(rtype.F("acc"))),
			rtype.NewPattern(rtype.NewVariant(rtype.F("x")))),
		Choice(Serial(fold, count), rename, Identity())), exit)
	var ins []*record.Record
	pings := 0
	ins = append(ins, record.New().SetField("acc", 1).SetTag("cnt", 1))
	for x := 2; x <= n; x++ {
		ins = append(ins, record.New().SetField("x", x))
		if x%3 == 0 {
			ins = append(ins, record.New().SetField("acc", 0).SetField("z", 0).SetTag("cnt", 0).SetTag("ping", 1))
			pings++
		}
	}
	nw := NewNetwork(net, Options{})
	if nw.OptStats().StarOperandsInlined != 1 {
		t.Fatalf("star not chained: %+v", nw.OptStats())
	}
	outs, err := nw.Run(ins...)
	if err != nil {
		t.Fatal(err)
	}
	sum, back := 0, 0
	for _, r := range outs {
		acc, _ := r.Field("acc")
		if r.HasTag("ping") {
			if acc != 0 {
				t.Fatalf("ping came back as %s", r)
			}
			back++
		} else {
			sum = acc.(int)
		}
	}
	if len(outs) != 1+pings || sum != n*(n+1)/2 || back != pings {
		t.Fatalf("%d outputs, sum %d, %d pings back; want %d, %d, %d", len(outs), sum, back, 1+pings, n*(n+1)/2, pings)
	}
}

// TestSpentExecutorWindowIsLinear: the merger idiom under a split, its
// replicas state blocks on executors: every replica's chain skips its spent
// unfoldings as a star's driver does, since the executors walk it with
// star.pass. Two keys' windows, interleaved, fed the way an executor feeds
// them.
func TestSpentExecutorWindowIsLinear(t *testing.T) {
	const n = 32
	net, _ := foldIdiom(cntExit(n))
	root, _ := Optimize(Split(net, "k"))
	if !root.executors {
		t.Fatalf("split not on executors:\n%s", root.Describe())
	}
	env := newEnv(Options{BufferSize: 64})
	out := env.newLink()
	p := newExecPool(env, root.kids[0], out)
	xs := []*execReplica{p.add(), p.add()}
	m := newMachine(env, p.prefix)
	var work []chainItem
	for _, r := range foldReadings(n) {
		for _, x := range xs {
			m.stored, m.ints = x.stored, x.ints
			var ok bool
			if _, work, ok = p.feed(m, x, r.Copy(), false, work); !ok {
				t.Fatal("feed reported a stop")
			}
		}
	}
	for i, x := range xs {
		if x.chain.steps != 3*n-4 {
			t.Fatalf("replica %d: %d unfoldings run, want %d", i, x.chain.steps, 3*n-4)
		}
		r, ok := out.Recv(env.done)
		if !ok {
			t.Fatal("output closed")
		}
		if acc, _ := r.Field("acc"); acc != n*(n+1)/2 {
			t.Fatalf("replica %d: acc = %v, want %d", i, acc, n*(n+1)/2)
		}
	}
}

// TestSpentJumpAllocFree: skipping spent unfoldings allocates nothing. A
// reading crosses the first of 64 spent unfoldings, skips to the last and
// leaves over the hand-off: two unfoldings run, no allocation.
func TestSpentJumpAllocFree(t *testing.T) {
	skipIfRace(t)
	net, _ := foldIdiom(cntExit(1000))
	w := newWalker(t, net)
	foldWindow(t, w, 65)
	w.c.cut(64)
	env := w.s.env
	w.c.next = env.newLink()
	r := record.New().SetField("x", 1)
	got := testing.AllocsPerRun(1000, func() {
		before := w.c.steps
		var ok bool
		if _, w.work, ok = w.s.pass(&w.c, append(w.work, chainItem{r, 0})); !ok {
			t.Fatal("pass reported a stop")
		}
		if w.c.steps-before != 2 {
			t.Fatalf("%d unfoldings run, want 2", w.c.steps-before)
		}
		if got, ok := w.c.next.Recv(env.done); !ok || got != r {
			t.Fatalf("hand-off got %v", got)
		}
	})
	if got != 0 {
		t.Fatalf("a walk across 64 spent unfoldings = %v allocs, want 0", got)
	}
}
