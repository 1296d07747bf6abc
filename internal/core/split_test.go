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

// TestSplitReplicasAreNotGoroutines: a split whose operand is a stage tree
// keeps a state block per tag value and runs it on executors, so 10 000 tag
// values fed one at a time cost the instance a few executors, not a
// goroutine (and two links) each. The tree as written still spawns a replica per value.
func TestSplitReplicasAreNotGoroutines(t *testing.T) {
	leakcheck.Check(t)
	grow := func(lvl OptimizeLevel, keys int) (perInstance, got int) {
		n := NewNetwork(Split(pairSum(nil), "k"), Options{Optimize: lvl})
		if want := map[OptimizeLevel]int{OptimizeOff: 0, OptimizeFull: 1}[lvl]; n.OptStats().SplitsOnExecutors != want {
			t.Fatalf("level %d: %+v, want %d split on executors", lvl, n.OptStats(), want)
		}
		idle := n.Start()
		before := runtime.NumGoroutine()
		inst := n.Start()
		perInstance = runtime.NumGoroutine() - before
		for k := 0; k < keys; k++ {
			a, b := pairRecs(k)
			inst.Send(a)
			inst.Send(b)
			if r := <-inst.Out; r == nil {
				t.Fatalf("level %d: output closed at key %d", lvl, k)
			} else if s, _ := r.Field("sum"); s != 3*k {
				t.Fatalf("level %d: sum %v for key %d", lvl, s, k)
			}
		}
		// Every replica exists now (the input is still open).
		got = runtime.NumGoroutine() - before
		for _, i := range []*Instance{inst, idle} {
			if err := i.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return perInstance, got
	}
	// An executor that has put its result out is busy until it parks, so the
	// next tag value can find none idle and start another: a few, not one.
	if per, got := grow(OptimizeFull, 10_000); got > per+4 {
		t.Fatalf("%d goroutines after 10000 tag values, an idle instance has %d", got, per)
	}
	if per, got := grow(OptimizeOff, 100); got < per+100 {
		t.Fatalf("as written: %d goroutines after 100 tag values (idle %d), expected a replica each", got, per)
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
		if r := s.pool.next(s.block(0)); r != run[0] {
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
