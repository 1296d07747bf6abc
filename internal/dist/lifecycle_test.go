package dist_test

import (
	"errors"
	"testing"
	"time"

	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

func TestExecCancelAbandonsSlotWait(t *testing.T) {
	c := dist.NewCluster(1, 1)
	// Occupy the node's only slot.
	occupied := make(chan struct{})
	release := make(chan struct{})
	go c.Exec(0, func() {
		close(occupied)
		<-release
	})
	<-occupied

	cancel := make(chan struct{})
	ret := make(chan bool, 1)
	go func() { ret <- execCancel(c, 0, cancel, func() { t.Error("fn ran after cancel") }) }()
	select {
	case <-ret:
		t.Fatal("cancellable ExecBox returned while the slot was still busy")
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel)
	select {
	case ok := <-ret:
		if ok {
			t.Fatal("cancellable ExecBox reported ok after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellable ExecBox did not honor cancellation")
	}
	close(release)

	// The abandoned wait must not have consumed capacity: a fresh Exec
	// acquires the slot normally.
	done := make(chan struct{})
	go c.Exec(0, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("slot stranded after a cancelled ExecBox")
	}
}

// TestStopReleasesClusterCapacity runs a network against a fully busy
// cluster, stops it while boxes are queued for slots, and verifies the
// cluster remains usable — a stopped network must not strand CPU slots.
func TestStopReleasesClusterCapacity(t *testing.T) {
	leakcheck.Check(t)
	cluster := dist.NewCluster(1, 1)
	sig := core.MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	blocking := core.NewBox("blocking", sig, func(c *core.BoxCall) error {
		started <- struct{}{}
		<-release
		return nil
	})
	inst := core.NewNetwork(blocking, core.Options{Platform: cluster}).Start()
	// First record holds the node's only CPU; the rest queue behind it,
	// some of them inside ExecBox waiting for the slot.
	for i := 0; i < 4; i++ {
		if !inst.Send(record.New().SetField("x", i)) {
			t.Fatal("Send refused")
		}
	}
	<-started

	stopRet := make(chan error, 1)
	go func() { stopRet <- inst.Stop() }()
	// Let Stop cancel the queued ExecBox waiters, then release the
	// one execution actually holding the slot.
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case err := <-stopRet:
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("Stop = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a saturated cluster")
	}

	// All slots must be free again: an independent network on the same
	// cluster runs to completion.
	quick := core.NewBox("quick", sig, func(c *core.BoxCall) error {
		c.Emit(record.New().SetField("x", 1))
		return nil
	})
	outs, err := core.NewNetwork(quick, core.Options{Platform: cluster}).Run(
		record.New().SetField("x", 0))
	if err != nil || len(outs) != 1 {
		t.Fatalf("cluster unusable after Stop: outs=%v err=%v", outs, err)
	}
}

// TestStopReleasesClusterMidSteal is TestStopReleasesClusterCapacity for
// the work-stealing scheduler: a steal-enabled network saturates a cluster
// whose queues hold stealable executions (some already migrated, some
// still waiting), then Stop must reclaim every goroutine and leave every
// slot and queue entry released.
func TestStopReleasesClusterMidSteal(t *testing.T) {
	leakcheck.Check(t)
	cluster := dist.NewCluster(2, 1)
	sig := core.MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	blocking := core.NewBox("blocking", sig, func(c *core.BoxCall) error {
		started <- struct{}{}
		<-release
		return nil
	})
	// Untagged dispatch spawns one replica per record, so every record is
	// its own concurrently queued execution: the first two occupy both
	// nodes' slots (one of them via a dispatch-time steal), the rest
	// queue as stealable waiters behind them.
	inst := core.NewNetwork(core.SplitAt(blocking, "node"), core.Options{
		Platform:     cluster,
		Placer:       &core.LeastLoaded{},
		WorkStealing: true,
	}).Start()
	for i := 0; i < 6; i++ {
		if !inst.Send(record.New().SetField("x", i)) {
			t.Fatal("Send refused")
		}
	}
	<-started
	<-started

	stopRet := make(chan error, 1)
	go func() { stopRet <- inst.Stop() }()
	// Let Stop cancel the queued stealable waiters, then release the two
	// executions holding slots.
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case err := <-stopRet:
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("Stop = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a saturated steal-enabled cluster")
	}

	// Nothing stranded: every slot free, queues empty, and the cluster
	// still runs fresh work on both nodes.
	if loads := cluster.Loads(nil); loads[0] != 0 || loads[1] != 0 {
		t.Fatalf("loads = %v after Stop, want [0 0]", loads)
	}
	quick := core.NewBox("quick", sig, func(c *core.BoxCall) error {
		c.Emit(record.New().SetField("x", 1))
		return nil
	})
	outs, err := core.NewNetwork(quick, core.Options{
		Platform: cluster, WorkStealing: true,
	}).Run(record.New().SetField("x", 0), record.New().SetField("x", 1))
	if err != nil || len(outs) != 2 {
		t.Fatalf("cluster unusable after mid-steal Stop: outs=%v err=%v", outs, err)
	}
}

// TestStopStarChainBlockedOnClusterSlot stops a chained star — the Fig. 3
// fold, a synchrocell gating a box — while its one driver goroutine sits
// inside the box's wait for a node's only CPU slot, an accumulator parked in
// the next unfolding's cell behind it. The wait must be abandoned, the driver
// unwind, and the slot stay usable.
func TestStopStarChainBlockedOnClusterSlot(t *testing.T) {
	leakcheck.Check(t)
	cluster := dist.NewCluster(1, 1)
	fold := core.NewBox("fold",
		core.MustSig([]rtype.Label{rtype.F("acc"), rtype.F("x")}, []rtype.Label{rtype.F("acc")}),
		func(c *core.BoxCall) error {
			c.Emit(record.New().SetField("acc", c.Field("acc").(int)+c.Field("x").(int)))
			return nil
		})
	never := rtype.NewPattern(rtype.NewVariant(rtype.T("done")))
	star := core.Star(core.Serial(
		core.NewSync(
			rtype.NewPattern(rtype.NewVariant(rtype.F("acc"))),
			rtype.NewPattern(rtype.NewVariant(rtype.F("x")))),
		core.Choice(fold, core.Identity())), never)
	net := core.NewNetwork(star, core.Options{Platform: cluster})
	if net.OptStats().StarOperandsInlined != 1 {
		t.Fatalf("star not chained: %+v", net.OptStats())
	}
	inst := net.Start()
	send := func(label string, v int) {
		t.Helper()
		if !inst.Send(record.New().SetField(label, v)) {
			t.Fatal("Send refused")
		}
	}
	// One fold with the slot free: the sum comes to rest in the second
	// unfolding's cell.
	send("acc", 0)
	send("x", 1)
	// Then the slot is taken from outside and the next join queues behind it.
	occupied := make(chan struct{})
	release := make(chan struct{})
	go cluster.Exec(0, func() {
		close(occupied)
		<-release
	})
	<-occupied
	send("x", 2)
	for deadline := time.Now().Add(5 * time.Second); cluster.Loads(nil)[0] < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("fold never queued for the slot: loads = %v", cluster.Loads(nil))
		}
		time.Sleep(time.Millisecond)
	}
	stopRet := make(chan error, 1)
	go func() { stopRet <- inst.Stop() }()
	select {
	case err := <-stopRet:
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("Stop = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a chain driver queued for a busy slot")
	}
	close(release)
	for deadline := time.Now().Add(5 * time.Second); cluster.Loads(nil)[0] != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("loads = %v after Stop, want [0]", cluster.Loads(nil))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStopSplitExecutorsLeakFree stops a split whose replicas run on
// executors (a synchrocell pairing readings in front of a box) while one
// executor sits in the box, one is queued for a node slot held from outside,
// and one is parked idle after storing a reading: every executor must leave,
// the queued wait be abandoned, and no slot stay taken.
func TestStopSplitExecutorsLeakFree(t *testing.T) {
	leakcheck.Check(t)
	cluster := dist.NewCluster(1, 2)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	hold := core.NewBox("hold",
		core.MustSig([]rtype.Label{rtype.F("a"), rtype.F("b")}, []rtype.Label{rtype.F("sum")}),
		func(c *core.BoxCall) error {
			started <- struct{}{}
			<-release
			return nil
		})
	split := core.Split(core.Serial(core.NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("a"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("b")))), hold), "k")
	net := core.NewNetwork(split, core.Options{Platform: cluster})
	if net.OptStats().SplitsOnExecutors != 1 {
		t.Fatalf("split not on executors: %+v", net.OptStats())
	}
	inst := net.Start()
	send := func(label string, k int) {
		t.Helper()
		if !inst.Send(record.New().SetField(label, k).SetTag("k", k)) {
			t.Fatal("Send refused")
		}
	}
	// Key 0's pair joins and its box takes one of the two slots.
	send("a", 0)
	send("b", 0)
	<-started
	// The other slot is taken from outside; key 1's box queues behind it.
	occupied := make(chan struct{})
	outside := make(chan struct{})
	go cluster.Exec(0, func() {
		close(occupied)
		<-outside
	})
	<-occupied
	send("a", 1)
	send("b", 1)
	for deadline := time.Now().Add(5 * time.Second); cluster.Loads(nil)[0] < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("key 1's box never queued for the slot: loads = %v", cluster.Loads(nil))
		}
		time.Sleep(time.Millisecond)
	}
	// Key 2's reading comes to rest in its cell; its executor parks.
	send("a", 2)
	time.Sleep(20 * time.Millisecond)
	stopRet := make(chan error, 1)
	go func() { stopRet <- inst.Stop() }()
	// Let Stop cancel the queued wait, then release the box that runs.
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case err := <-stopRet:
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("Stop = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a split's executors")
	}
	close(outside)
	for deadline := time.Now().Add(5 * time.Second); cluster.Loads(nil)[0] != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("loads = %v after Stop, want [0]", cluster.Loads(nil))
		}
		time.Sleep(time.Millisecond)
	}
}
