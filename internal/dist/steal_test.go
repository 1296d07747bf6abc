package dist_test

// Work-stealing coverage of the cluster's slot scheduler: dispatch-time
// and release-time steals, home preference, migration accounting, the
// Loads surface, the concurrent stealable/non-stealable cancel race, and
// deterministic-combinator order preservation under load-aware placement
// with stealing enabled.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// execCancel runs fn as a cancellable, non-stealable box execution on
// node (ExecBox with a local body), reporting whether fn ran.
func execCancel(c *dist.Cluster, node int, cancel <-chan struct{}, fn func()) bool {
	_, _, ok, _ := c.ExecBox(node, cancel, "", nil, false, fn)
	return ok
}

// execStealable is execCancel for a stealable execution whose triggering
// record is input.
func execStealable(c *dist.Cluster, node int, cancel <-chan struct{}, input *record.Record, fn func()) bool {
	_, _, ok, _ := c.ExecBox(node, cancel, "", input, true, fn)
	return ok
}

// occupy grabs one CPU slot of the node and holds it until release is
// closed, returning once the slot is held.
func occupy(c *dist.Cluster, node int, release <-chan struct{}) {
	held := make(chan struct{})
	go c.Exec(node, func() {
		close(held)
		<-release
	})
	<-held
}

func TestExecStealablePrefersHomeNode(t *testing.T) {
	c := dist.NewCluster(2, 1)
	execStealable(c, 0, nil, record.New().SetTag("x", 1), func() {})
	// Where an execution ran is visible in the per-node exec counts.
	if s := c.Stats(); s.Execs[0] != 1 || s.Steals != 0 {
		t.Fatalf("execs=%v steals=%d; want the execution on its idle home node", s.Execs, s.Steals)
	}
}

func TestExecStealableMigratesToIdleNodeAtDispatch(t *testing.T) {
	c := dist.NewCluster(2, 1)
	release := make(chan struct{})
	occupy(c, 0, release)
	defer close(release)

	// Home node 0 is saturated; node 1 idles. The stealable execution
	// must claim node 1 immediately instead of queueing behind node 0.
	done := make(chan struct{})
	go execStealable(c, 0, nil, record.New().SetTag("x", 7).SetField("f", "payload"), func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stealable execution never ran while a node idled")
	}
	s := c.Stats()
	if s.Execs[1] != 1 {
		t.Fatalf("execs=%v; want the stolen execution counted on thief node 1", s.Execs)
	}
	if s.Steals != 1 || s.Migrated != 1 {
		t.Fatalf("steals=%d migrated=%d, want 1/1", s.Steals, s.Migrated)
	}
	if s.Bytes == 0 {
		t.Fatal("migrated input was not byte-sized against the link codec")
	}
	if s.Transfers != 1 || s.Batches != 1 {
		t.Fatalf("transfers=%d batches=%d; a migration is one record hop in one wire message",
			s.Transfers, s.Batches)
	}
}

func TestExecStealableClaimedWhenRemoteSlotFrees(t *testing.T) {
	c := dist.NewCluster(2, 1)
	rel0 := make(chan struct{})
	rel1 := make(chan struct{})
	occupy(c, 0, rel0)
	occupy(c, 1, rel1)
	defer close(rel0)

	// Both nodes busy: the stealable execution queues on node 0.
	done := make(chan struct{})
	go execStealable(c, 0, nil, record.New().SetTag("x", 1), func() { close(done) })
	select {
	case <-done:
		t.Fatal("execution ran while every slot was busy")
	case <-time.After(20 * time.Millisecond):
	}
	// Node 1 frees its slot first — it must claim the queued work.
	close(rel1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("freed node never claimed the queued stealable execution")
	}
	if s := c.Stats(); s.Steals != 1 || s.Execs[1] != 2 {
		t.Fatalf("steals=%d execs=%v; want the release-time steal on node 1", s.Steals, s.Execs)
	}
}

func TestExecStealableNilInputMigratesFree(t *testing.T) {
	c := dist.NewCluster(2, 1)
	release := make(chan struct{})
	occupy(c, 0, release)
	defer close(release)
	ok := execStealable(c, 0, nil, nil, func() {})
	s := c.Stats()
	if !ok || s.Steals != 1 || s.Migrated != 0 || s.Bytes != 0 || s.Transfers != 0 {
		t.Fatalf("ok=%v steals=%d migrated=%d bytes=%d transfers=%d; want a free steal",
			ok, s.Steals, s.Migrated, s.Bytes, s.Transfers)
	}
}

func TestLoadsReportsSlotsAndQueue(t *testing.T) {
	c := dist.NewCluster(2, 1)
	if loads := c.Loads(nil); loads[0] != 0 || loads[1] != 0 {
		t.Fatalf("idle cluster loads = %v", loads)
	}
	release := make(chan struct{})
	occupy(c, 0, release)
	// A queued (non-stealable, so it stays put) execution raises node 0's
	// load to slot-in-use + one queued.
	queued := make(chan bool, 1)
	cancel := make(chan struct{})
	go func() { queued <- execCancel(c, 0, cancel, func() {}) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		loads := c.Loads(nil)
		if loads[0] == 2 && loads[1] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loads = %v, want [2 0]", loads)
		}
		time.Sleep(time.Millisecond)
	}
	close(cancel)
	if ran := <-queued; ran {
		t.Fatal("cancelled queued execution reported as run")
	}
	close(release)
}

// TestExecStealableCancelRace hammers the scheduler with concurrently
// cancelled stealable and non-stealable executions racing real work across
// every node; run under -race it checks the grant/cancel handshake, and the
// final Loads assert that no slot or queue entry is stranded.
func TestExecStealableCancelRace(t *testing.T) {
	c := dist.NewCluster(3, 2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := record.New().SetTag("g", g)
			for i := 0; i < 60; i++ {
				cancel := make(chan struct{})
				if i%3 == 0 {
					close(cancel) // cancelled before (or while) queueing
				} else if i%3 == 1 {
					go func() {
						time.Sleep(time.Duration(i%7) * time.Microsecond)
						close(cancel)
					}()
				}
				fn := func() { ran.Add(1); time.Sleep(10 * time.Microsecond) }
				if i%2 == 0 {
					execStealable(c, g%3, cancel, rec, fn)
				} else {
					execCancel(c, g%3, cancel, fn)
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		loads := c.Loads(nil)
		if loads[0] == 0 && loads[1] == 0 && loads[2] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loads = %v after all work finished; capacity stranded", loads)
		}
		time.Sleep(time.Millisecond)
	}
	if ran.Load() == 0 {
		t.Fatal("no execution ever ran")
	}
	// Every slot must still be usable: saturate the cluster once more.
	var wg2 sync.WaitGroup
	for n := 0; n < 3; n++ {
		for s := 0; s < 2; s++ {
			wg2.Add(1)
			go func(n int) {
				defer wg2.Done()
				c.Exec(n, func() {})
			}(n)
		}
	}
	wg2.Wait()
}

// TestDetCombinatorsDeterministicUnderStealing runs DetChoice and DetSplit
// on a live cluster with least-loaded placement and work stealing at batch
// sizes 1–16: migrating box executions must not leak into the output
// order — the deterministic merger still restores input order exactly.
func TestDetCombinatorsDeterministicUnderStealing(t *testing.T) {
	leakcheck.Check(t)
	const n = 120
	sigX := core.MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	for _, bs := range []int{1, 2, 3, 5, 8, 16} {
		opts := func() core.Options {
			return core.Options{
				Platform:     dist.NewCluster(4, 2),
				Placer:       &core.LeastLoaded{},
				WorkStealing: true,
				BatchSize:    bs,
				BufferSize:   16,
			}
		}
		// DetChoice: the slow branch stalls every fourth record, so later
		// records overtake inside the cluster and must be reordered.
		slowEven := core.NewBox("slowEven", sigX, func(c *core.BoxCall) error {
			x := c.Field("x").(int)
			if x%4 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			c.Emit(record.New().SetField("x", x))
			return nil
		})
		never := core.NewBox("never", core.MustSig(
			[]rtype.Label{rtype.F("y")}, []rtype.Label{rtype.F("y")}),
			func(c *core.BoxCall) error { return nil })
		var ins []*record.Record
		for i := 0; i < n; i++ {
			ins = append(ins, record.New().SetField("x", i))
		}
		outs, err := core.NewNetwork(core.DetChoice(slowEven, never), opts()).Run(ins...)
		if err != nil {
			t.Fatalf("DetChoice bs=%d: %v", bs, err)
		}
		checkOrdered(t, "DetChoice", bs, outs, n)

		// DetSplit: three replicas, the zero replica slow.
		sigK := core.MustSig([]rtype.Label{rtype.F("x"), rtype.T("k")}, []rtype.Label{rtype.F("x")})
		echo := core.NewBox("echo", sigK, func(c *core.BoxCall) error {
			if c.Tag("k") == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			c.Emit(record.New().SetField("x", c.Field("x")).SetTag("k", c.Tag("k")))
			return nil
		})
		ins = ins[:0]
		for i := 0; i < n; i++ {
			ins = append(ins, record.Build().F("x", i).T("k", i%3).Rec())
		}
		outs, err = core.NewNetwork(core.DetSplit(echo, "k"), opts()).Run(ins...)
		if err != nil {
			t.Fatalf("DetSplit bs=%d: %v", bs, err)
		}
		checkOrdered(t, "DetSplit", bs, outs, n)
	}
}

func checkOrdered(t *testing.T, name string, bs int, outs []*record.Record, n int) {
	t.Helper()
	if len(outs) != n {
		t.Fatalf("%s bs=%d: %d outputs, want %d", name, bs, len(outs), n)
	}
	for i, r := range outs {
		v, ok := r.Field("x")
		if !ok || v.(int) != i {
			t.Fatalf("%s bs=%d: output %d = %v; input order lost under stealing", name, bs, i, v)
		}
	}
}
