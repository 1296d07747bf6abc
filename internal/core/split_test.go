package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snet/internal/journal"
	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// pairSum is [| {a}, {b} |] .. sum, the wire_pipeline operand's shape: a
// synchrocell pairs a reading of each kind and the box adds them. body runs
// inside the box before it emits, when set.
func pairSum(body func()) *Entity {
	sum := NewBox("sum",
		MustSig([]rtype.Label{rtype.F("a"), rtype.F("b")}, []rtype.Label{rtype.F("sum")}),
		func(c *BoxCall) error {
			if body != nil {
				body()
			}
			c.Emit(record.New().SetField("sum", c.Field("a").(int)+c.Field("b").(int)))
			return nil
		})
	return Serial(NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("a"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("b")))), sum)
}

// pairRecs is key k's pair of readings, a = k and b = 2k.
func pairRecs(k int) (*record.Record, *record.Record) {
	return record.New().SetField("a", k).SetTag("k", k), record.New().SetField("b", 2*k).SetTag("k", k)
}

// replicaGoroutines feeds keys tag values one at a time through a split
// instance of ent — each value's records from recs, then one output, checked
// by check — and returns the goroutines of an idle instance and of one with
// every replica made (its input still open).
func replicaGoroutines(t *testing.T, ent *Entity, lvl OptimizeLevel, keys int,
	recs func(k int) []*record.Record, check func(k int, r *record.Record) bool) (perInstance, got int) {
	t.Helper()
	n := NewNetwork(ent, Options{Optimize: lvl})
	if want := map[OptimizeLevel]int{OptimizeOff: 0, OptimizeFull: 1}[lvl]; n.OptStats().SplitsOnExecutors != want {
		t.Fatalf("level %d: %+v, want %d split on executors", lvl, n.OptStats(), want)
	}
	idle := n.Start()
	before := runtime.NumGoroutine()
	inst := n.Start()
	perInstance = runtime.NumGoroutine() - before
	for k := 0; k < keys; k++ {
		for _, r := range recs(k) {
			inst.Send(r)
		}
		if r := <-inst.Out; r == nil {
			t.Fatalf("level %d: output closed at key %d", lvl, k)
		} else if !check(k, r) {
			t.Fatalf("level %d: output %v for key %d", lvl, r, k)
		}
	}
	got = runtime.NumGoroutine() - before
	for _, i := range []*Instance{inst, idle} {
		if err := i.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return perInstance, got
}

// TestSplitReplicasAreNotGoroutines: a split whose operand is a stage tree
// keeps a state block per tag value and runs it on executors, so 10 000 tag
// values fed one at a time cost the instance a few executors, not a
// goroutine (and two links) each. The tree as written still spawns a replica per value.
func TestSplitReplicasAreNotGoroutines(t *testing.T) {
	leakcheck.Check(t)
	recs := func(k int) []*record.Record { a, b := pairRecs(k); return []*record.Record{a, b} }
	check := func(k int, r *record.Record) bool { s, _ := r.Field("sum"); return s == 3*k }
	// An executor counts itself idle before its last output leaves, so the
	// next tag value, sent in answer to that output, finds it idle.
	if per, got := replicaGoroutines(t, Split(pairSum(nil), "k"), OptimizeFull, 10_000, recs, check); got > per+4 {
		t.Fatalf("%d goroutines after 10000 tag values, an idle instance has %d", got, per)
	}
	if per, got := replicaGoroutines(t, Split(pairSum(nil), "k"), OptimizeOff, 100, recs, check); got < per+100 {
		t.Fatalf("as written: %d goroutines after 100 tag values (idle %d), expected a replica each", got, per)
	}
}

// TestSplitStarTailReplicasAreNotGoroutines: the Fig. 3 merger idiom under a
// split — a stage tree feeding a chained star — runs on the split's executors
// too: a tag value's replica is the tree's state and the star's chain, so
// 10 000 tag values cost a few executors, not a prefix goroutine and a star
// driver each. As written, every replica spawns at least those two.
func TestSplitStarTailReplicasAreNotGoroutines(t *testing.T) {
	leakcheck.Check(t)
	net, _ := foldIdiom(cntExit(2))
	recs := func(k int) []*record.Record {
		return []*record.Record{
			record.New().SetField("x", k).SetTag("fst", 1).SetTag("k", k),
			record.New().SetField("x", 1).SetTag("k", k),
		}
	}
	check := func(k int, r *record.Record) bool { acc, _ := r.Field("acc"); return acc == k+1 }
	if per, got := replicaGoroutines(t, Split(net, "k"), OptimizeFull, 10_000, recs, check); got > per+4 {
		t.Fatalf("%d goroutines after 10000 tag values, an idle instance has %d", got, per)
	}
	if per, got := replicaGoroutines(t, Split(net, "k"), OptimizeOff, 100, recs, check); got < per+200 {
		t.Fatalf("as written: %d goroutines after 100 tag values (idle %d), expected two a replica at least", got, per)
	}
}

// TestSplitExecutorsOverlap: a replica with records never waits for another
// replica's box, so executions of different tag values overlap as they did
// with a goroutine each. Each execution waits (bounded) until it has seen
// company.
func TestSplitExecutorsOverlap(t *testing.T) {
	leakcheck.Check(t)
	var inflight, high atomic.Int32
	company := make(chan struct{})
	var once sync.Once
	body := func() {
		if now := inflight.Add(1); now >= 2 {
			high.Store(now)
			once.Do(func() { close(company) })
		}
		select {
		case <-company:
		case <-time.After(2 * time.Second):
		}
		inflight.Add(-1)
	}
	n := NewNetwork(Split(pairSum(body), "k"), Options{})
	if n.OptStats().SplitsOnExecutors != 1 {
		t.Fatalf("split not on executors: %+v", n.OptStats())
	}
	root, _ := Optimize(n.Entity())
	if d := root.Describe(); !strings.Contains(d, "!<k>)  :: ") || !strings.Contains(d, "-- executors") {
		t.Fatalf("Describe does not mark the executors:\n%s", d)
	}
	var ins []*record.Record
	for k := 0; k < 8; k++ {
		a, b := pairRecs(k)
		ins = append(ins, a, b)
	}
	outs, err := n.Run(ins...)
	if err != nil || len(outs) != 8 {
		t.Fatalf("outs=%d err=%v", len(outs), err)
	}
	if high.Load() < 2 {
		t.Fatalf("box executions of different replicas never overlapped: high-water mark %d", high.Load())
	}
}

// TestSplitExecutorKeepsReplicaFIFO: one executor at a time runs a replica's
// queue, in arrival order, so every tag value's records leave in the order
// they came — with queues at their bound (tiny links) and without.
func TestSplitExecutorKeepsReplicaFIFO(t *testing.T) {
	leakcheck.Check(t)
	const keys, per = 16, 200
	echo := NewBox("echo", MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")}),
		func(c *BoxCall) error {
			if c.Field("x").(int)%7 == 0 {
				runtime.Gosched()
			}
			c.Emit(record.New().SetField("x", c.Field("x")))
			return nil
		})
	var ins []*record.Record
	next := make([]int, keys)
	for i, k := 0, 0; len(ins) < keys*per; i++ {
		// Runs of 1–5 records per key, keys in a scrambled order.
		k = (k*5 + 3) % keys
		for j := 0; j <= i%5 && next[k] < per; j++ {
			ins = append(ins, record.New().SetField("x", next[k]).SetTag("k", k))
			next[k]++
		}
	}
	for _, buf := range []int{1, 4, 0} {
		n := NewNetwork(Split(echo, "k"), Options{BufferSize: buf})
		if n.OptStats().SplitsOnExecutors != 1 {
			t.Fatalf("split not on executors: %+v", n.OptStats())
		}
		cp := make([]*record.Record, len(ins))
		for i, r := range ins {
			cp[i] = r.Copy()
		}
		outs, err := n.Run(cp...)
		if err != nil || len(outs) != keys*per {
			t.Fatalf("buffer %d: outs=%d err=%v", buf, len(outs), err)
		}
		seen := make([]int, keys)
		for _, r := range outs {
			k, _ := r.Tag("k")
			if x, _ := r.Field("x"); x != seen[k] {
				t.Fatalf("buffer %d: key %d put out x=%v, want %d", buf, k, x, seen[k])
			}
			seen[k]++
		}
	}
}

// TestSplitExecutorsKeepBackpressure: a replica queues at most what its
// input link would have held. With its executor held, the dispatcher fills
// the queue to the bound and then blocks until the executor takes a record;
// end to end, a split whose Out is unread stops taking input after a few
// buffers' worth instead of swallowing the stream.
func TestSplitExecutorsKeepBackpressure(t *testing.T) {
	leakcheck.Check(t)
	const bound = 4
	gate := make(chan struct{})
	var ran atomic.Int64
	hold := NewBox("hold", MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")}),
		func(c *BoxCall) error {
			ran.Add(1)
			<-gate
			c.Emit(record.New().SetField("x", c.Field("x")))
			return nil
		})
	env := newEnv(Options{BufferSize: bound})
	out := env.newLink()
	p := newExecPool(env, hold, out)
	x := p.add()
	recs := make([]*record.Record, bound+2)
	for i := range recs {
		recs[i] = record.New().SetField("x", i)
	}
	queued := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(x.q) - x.head
	}
	// The first record: an executor takes it and holds in the box.
	if !p.dispatch(x, recs[:1]) {
		t.Fatal("dispatch refused")
	}
	for deadline := time.Now().Add(5 * time.Second); ran.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no executor took the first record")
		}
		time.Sleep(time.Millisecond)
	}
	// The next bound records fill the queue and return at once.
	if !p.dispatch(x, recs[1:bound+1]) || queued() != bound {
		t.Fatalf("queue holds %d records, want %d", queued(), bound)
	}
	// One more waits for room.
	ret := make(chan bool, 1)
	go func() { ret <- p.dispatch(x, recs[bound+1:]) }()
	select {
	case <-ret:
		t.Fatalf("dispatch returned with %d records queued at a bound of %d", queued(), bound)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	got := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, ok := out.Recv(env.done); !ok {
				got <- n
				return
			}
			n++
		}
	}()
	if !<-ret {
		t.Fatal("dispatch refused after room was made")
	}
	p.close()
	env.closeLink(out)
	if n := <-got; n != len(recs) {
		t.Fatalf("%d records out, want %d", n, len(recs))
	}

	// End to end: nobody reads Out.
	var held atomic.Int64
	slow := NewBox("slow", MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")}),
		func(c *BoxCall) error {
			held.Add(1)
			c.Emit(record.New().SetField("x", c.Field("x")))
			return nil
		})
	inst := NewNetwork(Split(slow, "k"), Options{BufferSize: bound}).Start()
	const total = 10_000
	sent := 0
	for ; sent < total; sent++ {
		delivered := make(chan bool, 1)
		go func(r *record.Record) { delivered <- inst.Send(r) }(record.New().SetField("x", sent).SetTag("k", 0))
		select {
		case <-delivered:
			continue
		case <-time.After(50 * time.Millisecond):
		}
		break
	}
	if sent >= total || held.Load() > 16*bound {
		t.Fatalf("took %d of %d records and ran %d boxes with Out unread: not held back", sent, total, held.Load())
	}
	withTimeout(t, 5*time.Second, "Stop of a split held back by its reader", func() { inst.Stop() })
}

// TestSplitExecutorCloseDiscardsStorage: at close every replica's
// synchrocell gives up what it still holds, and the deliveries of the
// discarded records complete — the ingress journal drains.
func TestSplitExecutorCloseDiscardsStorage(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	n := NewNetwork(Split(pairSum(nil), "k"), Options{Durability: &Durability{Dir: dir}})
	if n.OptStats().SplitsOnExecutors != 1 {
		t.Fatalf("split not on executors: %+v", n.OptStats())
	}
	// Every key's a-reading; only the even keys' b-readings.
	var ins []*record.Record
	for k := 0; k < 8; k++ {
		a, b := pairRecs(k)
		ins = append(ins, a)
		if k%2 == 0 {
			ins = append(ins, b)
		}
	}
	outs, err := n.Run(ins...)
	if err != nil || len(outs) != 4 {
		t.Fatalf("outs=%v err=%v", outs, err)
	}
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec := j.Recovered(); len(rec) != 0 {
		t.Fatalf("journal holds %d unacked deliveries: stored readings were not discarded", len(rec))
	}
}

// TestSplitReplicaAllocCeiling pins what a tag value costs a split on
// executors: a new replica is its state block (plus, amortized, the map and
// the creation-order list), and re-feeding an existing one — queue and take
// a record — allocates nothing.
func TestSplitReplicaAllocCeiling(t *testing.T) {
	skipIfRace(t)
	root, _ := Optimize(Split(pairSum(nil), "k"))
	if !root.executors {
		t.Fatalf("split not on executors:\n%s", root.Describe())
	}
	env := newEnv(Options{BufferSize: DefaultBufferSize})
	out := env.newLink()
	s := &splitter{env: env, e: root, tag: record.Intern("k"), out: out,
		blocks: make(map[int]*execReplica),
		pool:   newExecPool(env, root.kids[0], out)}
	v := 1
	if got := testing.AllocsPerRun(1000, func() { s.block(v); v++ }); got > 2 {
		t.Fatalf("a new replica of sync..box = %v allocs, want <= 2", got)
	}
	// As if an executor had it: dispatch only queues.
	s.block(0).busy = true
	run := []*record.Record{record.New().SetField("a", 1).SetTag("k", 0)}
	if got := testing.AllocsPerRun(1000, func() {
		if !s.dispatch(0, run) {
			t.Fatal("dispatch refused")
		}
		if r, _ := s.pool.next(s.block(0), false); r != run[0] {
			t.Fatalf("took %v, want the record queued", r)
		}
	}); got != 0 {
		t.Fatalf("re-feeding a replica = %v allocs, want 0", got)
	}
	if x := s.block(0); len(x.stored) != 2 || len(x.ints) != 1 {
		t.Fatalf("state block holds %d slots and %d ints, want 2 and 1", len(x.stored), len(x.ints))
	}
	if !slices.Equal(s.pool.reps[:1], []*execReplica{s.block(1)}) {
		t.Fatal("replicas not listed in creation order")
	}
}

// TestSplitExecutorMergerIdiom: the Fig. 3 merger idiom under a split runs on
// executors, Describe says so, and every key's window folds to the sum the
// tree as written computes.
func TestSplitExecutorMergerIdiom(t *testing.T) {
	leakcheck.Check(t)
	const keys, win = 12, 5
	net, _ := foldIdiom(cntExit(win))
	ins := func() []*record.Record {
		var ins []*record.Record
		for i := 0; i < win; i++ {
			for k := 0; k < keys; k++ {
				r := record.New().SetField("x", i+1).SetTag("k", k)
				if i == 0 {
					r.SetTag("fst", 1)
				}
				ins = append(ins, r)
			}
		}
		return ins
	}
	root, st := Optimize(Split(net, "k"))
	if st.SplitsOnExecutors != 1 || !root.executors {
		t.Fatalf("merger idiom not on executors: %+v\n%s", st, root.Describe())
	}
	if d := root.Describe(); !strings.Contains(d, "!<k>)  :: ") || !strings.Contains(d, "-- executors") {
		t.Fatalf("Describe does not mark the executors:\n%s", d)
	}
	for _, lvl := range []OptimizeLevel{OptimizeFull, OptimizeOff} {
		outs, err := NewNetwork(Split(net, "k"), Options{Optimize: lvl}).Run(ins()...)
		if err != nil || len(outs) != keys {
			t.Fatalf("level %d: outs=%d err=%v", lvl, len(outs), err)
		}
		for _, r := range outs {
			if acc, _ := r.Field("acc"); acc != win*(win+1)/2 {
				t.Fatalf("level %d: %v, want acc %d", lvl, r, win*(win+1)/2)
			}
		}
	}
}

// TestSplitExecutorChainHandsOff: a star tail whose operand reaches its box
// ungated hands off behind every unfolding, from inside the executor: the
// hand-off drivers are senders on the split's output, so box executions of
// a tag value's unfoldings overlap — which its one executor alone could not
// do — and the outputs are the tree's as written. Each execution but the
// first, which has none to see, waits (bounded) until it has seen company.
func TestSplitExecutorChainHandsOff(t *testing.T) {
	leakcheck.Check(t)
	// The split's entity, and how many box executions were ever in flight
	// at once.
	build := func() (*Entity, *atomic.Int32) {
		var calls, inflight, high atomic.Int32
		company := make(chan struct{})
		var once sync.Once
		sig := MustSig([]rtype.Label{rtype.T("n")}, []rtype.Label{rtype.T("n")})
		box := NewBox("step", sig, func(c *BoxCall) error {
			if now := inflight.Add(1); now >= 2 {
				high.Store(now)
				once.Do(func() { close(company) })
			}
			if calls.Add(1) > 1 {
				select {
				case <-company:
				case <-time.After(time.Second):
				}
			}
			inflight.Add(-1)
			c.Emit(record.New().SetTag("n", c.Tag("n")+1))
			return nil
		})
		exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(
			func(r *record.Record) bool { v, _ := r.Tag("n"); return v == 4 }, "<n> == 4")
		return Split(Star(box, exit), "k"), &high
	}
	ent, _ := build()
	root, _ := Optimize(ent)
	if d := root.Describe(); !root.executors || !strings.Contains(d, "-- chain, hand-off at every unfolding: ungated box") {
		t.Fatalf("split over an ungated star not on executors:\n%s", d)
	}
	ins := func() []*record.Record {
		ins := make([]*record.Record, 8)
		for i := range ins {
			ins[i] = record.New().SetTag("n", 0).SetTag("k", 0)
		}
		return ins
	}
	var want []string
	for _, lvl := range []OptimizeLevel{OptimizeOff, OptimizeFull} {
		ent, high := build()
		outs, err := NewNetwork(ent, Options{Optimize: lvl}).Run(ins()...)
		if err != nil || len(outs) != 8 {
			t.Fatalf("level %d: outs=%d err=%v", lvl, len(outs), err)
		}
		var got []string
		for _, r := range outs {
			got = append(got, r.String())
		}
		slices.Sort(got)
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("outputs %v, as written %v", got, want)
		}
		if high.Load() < 2 {
			t.Fatalf("level %d: box executions never overlapped: high-water mark %d", lvl, high.Load())
		}
	}
}

// goroutinesIn counts the live goroutines with a frame in each of fns.
func goroutinesIn(fns ...string) []int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	counts := make([]int, len(fns))
	for _, g := range strings.Split(string(buf), "\n\n") {
		for i, fn := range fns {
			if strings.Contains(g, fn) {
				counts[i]++
			}
		}
	}
	return counts
}

// TestStopExecutorChainLeakFree: Stop reclaims a split on executors whatever
// its goroutines are doing — one executor on a record's endless way through
// its replica's chain, one parked, and a hand-off driver waiting for input.
func TestStopExecutorChainLeakFree(t *testing.T) {
	leakcheck.Check(t)
	// [{<n>} -> {<n+=1>}] | mark, where mark turns {y} into {<n=0>,<max=1>}.
	inc := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("n"))),
		Outputs: []FilterOutput{{SetTags: []TagAssign{{
			Name: "n",
			Expr: func(r *record.Record) int { v, _ := r.Tag("n"); return v + 1 },
			Src:  "n+=1",
		}}}},
	})
	mark := NewBox("mark", MustSig([]rtype.Label{rtype.F("y")}, []rtype.Label{rtype.T("n"), rtype.T("max")}),
		func(c *BoxCall) error {
			c.Emit(record.New().SetTag("n", 0).SetTag("max", 1))
			return nil
		})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"), rtype.T("max"))).WithGuard(
		func(r *record.Record) bool {
			n, _ := r.Tag("n")
			max, _ := r.Tag("max")
			return n == max
		}, "<n> == <max>")
	n := NewNetwork(Split(Serial(setTagFilter("p", 1), Star(Choice(inc, mark), exit)), "k"), Options{})
	if n.OptStats().SplitsOnExecutors != 1 {
		t.Fatalf("split not on executors: %+v", n.OptStats())
	}
	inst := n.Start()
	inst.Send(record.New().SetTag("n", 0).SetTag("max", 1<<40).SetTag("k", 0))
	inst.Send(record.New().SetField("y", 1).SetTag("k", 1))
	select {
	case r := <-inst.Out:
		if v, _ := r.Tag("k"); v != 1 {
			t.Fatalf("output %v, want key 1's", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no output from the hand-off")
	}
	fns := []string{"core.(*execPool).run(", "core.(*star).pass(", "core.(*star).drive("}
	for deadline := time.Now().Add(5 * time.Second); ; {
		// Two executors, one of them walking; one driver, not walking.
		c := goroutinesIn(fns...)
		if c[0] == 2 && c[1] == 1 && c[2] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("executors %d, walking %d, drivers %d: want 2, 1, 1", c[0], c[1], c[2])
		}
		time.Sleep(time.Millisecond)
	}
	withTimeout(t, 5*time.Second, "Stop of executors mid-chain", func() { inst.Stop() })
}

// TestSplitExecutorCloseDiscardsChain: at close every replica gives up what
// its tree's synchrocells hold and then what its chain's hold, and each
// discarded record's delivery completes: the journal's unacked deliveries
// are exactly the records the cells held, and all of them are acked once the
// instance has closed.
func TestSplitExecutorCloseDiscardsChain(t *testing.T) {
	leakcheck.Check(t)
	const keys = 4
	// A cell in front of the merger idiom that no record of the stream
	// completes: it holds each key's {p} and passes the rest.
	_, operand := foldIdiom(cntExit(9))
	seed := NewBox("seed",
		MustSig([]rtype.Label{rtype.F("x"), rtype.T("fst")}, []rtype.Label{rtype.F("acc")}),
		func(c *BoxCall) error {
			c.Emit(record.New().SetField("acc", c.Field("x")))
			return nil
		})
	hold := NewSync(rtype.NewPattern(rtype.NewVariant(rtype.F("p"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("q"))))
	prefix := Serial(hold, Choice(Serial(seed, setTagFilter("cnt", 1)), Identity()))
	n := NewNetwork(Split(Serial(prefix, Star(operand, cntExit(9))), "k"),
		Options{Durability: &Durability{Dir: t.TempDir()}})
	if n.OptStats().SplitsOnExecutors != 1 {
		t.Fatalf("split not on executors: %+v", n.OptStats())
	}
	inst := n.Start()
	for k := 0; k < keys; k++ {
		// The cell in front holds {p}; the first unfolding's holds the
		// accumulator after {x=1}, the second's after {x=2}; {<cnt=9>}
		// passes everything and leaves at the first tap, behind the rest.
		inst.Send(record.New().SetField("p", 1).SetTag("k", k))
		inst.Send(record.New().SetField("x", 1).SetTag("fst", 1).SetTag("k", k))
		inst.Send(record.New().SetField("x", 2).SetTag("k", k))
		inst.Send(record.New().SetTag("cnt", 9).SetTag("k", k))
	}
	for k := 0; k < keys; k++ {
		if r := <-inst.Out; r == nil {
			t.Fatal("output closed early")
		}
	}
	// The outputs' acks trail them.
	held := inst.env.jnl.Stats().Unacked
	for deadline := time.Now().Add(5 * time.Second); held > 2*keys && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		held = inst.env.jnl.Stats().Unacked
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	// Per key, {p}'s delivery and the accumulator's: the join of {x=1} and
	// {x=2} lives on in it.
	st := inst.env.jnl.Stats()
	if held != 2*keys || st.Unacked != 0 || st.Acks != st.Appends {
		t.Fatalf("%d deliveries held before close, %d unacked after, %d acks of %d appends; want %d, 0 and all",
			held, st.Unacked, st.Acks, st.Appends, 2*keys)
	}
}
