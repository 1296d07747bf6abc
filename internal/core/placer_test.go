package core

// Placement-policy coverage: the Placer implementations, dispatch-time
// node resolution in SplitAt (including untagged dispatch), and stars that
// stay on their node under every policy.

import (
	"fmt"
	"sync"
	"testing"

	"snet/internal/dist"
	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// fakeCluster is a multi-node test platform that executes inline and
// records which node every execution ran on. Loads returns a caller-set
// snapshot, so tests can steer LeastLoaded deterministically.
type fakeCluster struct {
	LocalPlatform
	nodes int

	mu    sync.Mutex
	execs []int
	loads []int
}

func newFakeCluster(nodes int) *fakeCluster {
	return &fakeCluster{nodes: nodes, execs: make([]int, nodes)}
}

func (f *fakeCluster) Nodes() int { return f.nodes }

func (f *fakeCluster) ExecBox(node int, _ <-chan struct{}, _ string, _ *record.Record,
	_ bool, local func()) ([]*record.Record, bool, bool, error) {
	f.mu.Lock()
	f.execs[node]++
	f.mu.Unlock()
	local()
	return nil, false, true, nil
}

func (f *fakeCluster) Loads(dst []int) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append(dst[:0], f.loads...)
}

func (f *fakeCluster) setLoads(loads ...int) {
	f.mu.Lock()
	f.loads = append(f.loads[:0], loads...)
	f.mu.Unlock()
}

func (f *fakeCluster) execSnapshot() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.execs...)
}

func TestStaticPlacerIsTagModuloNodes(t *testing.T) {
	p := Static{}
	for _, tc := range []struct{ key, nodes, want int }{
		{0, 4, 0}, {3, 4, 3}, {4, 4, 0}, {7, 4, 3}, {-1, 4, 3}, {-5, 4, 3},
	} {
		if got := p.Place(tc.key, tc.nodes, nil); got != tc.want {
			t.Errorf("Static.Place(%d, %d) = %d, want %d", tc.key, tc.nodes, got, tc.want)
		}
	}
}

func TestRoundRobinPlacerCycles(t *testing.T) {
	p := &RoundRobin{}
	for i := 0; i < 8; i++ {
		if got := p.Place(99, 4, nil); got != i%4 {
			t.Fatalf("RoundRobin.Place call %d = %d, want %d", i, got, i%4)
		}
	}
}

func TestLeastLoadedPlacerPicksMinimum(t *testing.T) {
	p := &LeastLoaded{}
	load := []int{5, 2, 7, 2}
	for i := 0; i < 8; i++ {
		got := p.Place(0, 4, load)
		if load[got] != 2 {
			t.Fatalf("LeastLoaded.Place = node %d (load %d), want a load-2 node", got, load[got])
		}
	}
	// Without load information it degrades to round-robin coverage: all
	// nodes are hit over a full cycle.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[p.Place(0, 4, nil)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("LeastLoaded without load hit %d distinct nodes, want 4", len(seen))
	}
}

// tagSig builds the {x,<k>} -> {x} signature used by split operands.
func splitOperand(name string) *Entity {
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	return NewBox(name, sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x").(int)+100))
		return nil
	})
}

// TestSplitAtUntaggedDispatch routes records without the index tag through
// SplitAt under a dynamic policy: every record is processed (through a
// fresh replica on the policy-chosen node) and the executions spread over
// the platform.
func TestSplitAtUntaggedDispatch(t *testing.T) {
	leakcheck.Check(t)
	plat := newFakeCluster(4)
	e := SplitAt(splitOperand("solve"), "node")
	var ins []*record.Record
	const n = 32
	for i := 0; i < n; i++ {
		ins = append(ins, record.New().SetField("x", i))
	}
	outs, err := NewNetwork(e, Options{Platform: plat, Placer: &RoundRobin{}}).Run(ins...)
	if err != nil {
		t.Fatalf("untagged dispatch errored: %v", err)
	}
	if len(outs) != n {
		t.Fatalf("%d outputs, want %d", len(outs), n)
	}
	got := map[int]bool{}
	for _, r := range outs {
		v, _ := r.Field("x")
		got[v.(int)] = true
	}
	for i := 0; i < n; i++ {
		if !got[i+100] {
			t.Fatalf("output %d missing", i+100)
		}
	}
	for node, c := range plat.execSnapshot() {
		if c != n/4 {
			t.Fatalf("node %d ran %d execs, want %d (round-robin spread)", node, c, n/4)
		}
	}
}

// TestSplitAtUntaggedStaticPolicyStillErrors preserves the pre-policy
// contract: without a dynamic placer an untagged record is a runtime type
// error and is dropped, not silently placed. Static by pointer must behave
// exactly like Static by value (the stateful policies are naturally passed
// as pointers, so users will write &Static{} too).
func TestSplitAtUntaggedStaticPolicyStillErrors(t *testing.T) {
	leakcheck.Check(t)
	for _, placer := range []Placer{nil, Static{}, &Static{}} {
		plat := newFakeCluster(2)
		inst := NewNetwork(SplitAt(splitOperand("solve"), "node"),
			Options{Platform: plat, Placer: placer}).Start()
		inst.In <- record.New().SetField("x", 1)
		close(inst.In)
		var outs int
		for range inst.Out {
			outs++
		}
		if outs != 0 {
			t.Fatalf("placer %T: untagged record produced %d outputs, want 0", placer, outs)
		}
		if inst.ErrCount() != 1 {
			t.Fatalf("placer %T: ErrCount = %d, want 1", placer, inst.ErrCount())
		}
	}
}

// TestSplitAtPlacedByLoad pins replica placement to the load snapshot: with
// LeastLoaded and a rigged load report, the first replica must be created
// on the (only) idle node regardless of its tag value.
func TestSplitAtPlacedByLoad(t *testing.T) {
	leakcheck.Check(t)
	plat := newFakeCluster(4)
	plat.setLoads(3, 3, 3, 0)
	e := SplitAt(splitOperand("solve"), "node")
	outs, err := NewNetwork(e, Options{Platform: plat, Placer: &LeastLoaded{}}).Run(
		record.Build().F("x", 1).T("node", 0).Rec())
	if err != nil || len(outs) != 1 {
		t.Fatalf("outs=%d err=%v", len(outs), err)
	}
	execs := plat.execSnapshot()
	if execs[3] != 1 {
		t.Fatalf("execs = %v, want the replica for tag 0 placed on idle node 3", execs)
	}
}

// TestStarStaysOnItsNode: a dynamic policy places work only at A!@<tag>,
// never a star's unfoldings. Under RoundRobin and under LeastLoaded (with a
// load report that makes the star's node the busiest), every execution of a
// six-unfolding star runs on the star's node, spawned per unfolding or run
// as a chain, and a dist.Cluster charges no transfer.
func TestStarStaysOnItsNode(t *testing.T) {
	leakcheck.Check(t)
	exit := rtype.NewPattern(rtype.NewVariant(rtype.F("x"))).WithGuard(
		func(r *record.Record) bool {
			v, _ := r.Field("x")
			return v.(int) >= 6
		}, "x >= 6")
	run := func(t *testing.T, plat Platform, p Placer, lvl OptimizeLevel) {
		t.Helper()
		outs, err := NewNetwork(Star(incBox("inc", 1), exit),
			Options{Platform: plat, Placer: p, Optimize: lvl}).Run(
			record.New().SetField("x", 0))
		if err != nil || len(outs) != 1 {
			t.Fatalf("outs=%d err=%v", len(outs), err)
		}
	}
	policies := []struct {
		name string
		new  func() Placer
	}{
		{"RoundRobin", func() Placer { return &RoundRobin{} }},
		{"LeastLoaded", func() Placer { return &LeastLoaded{} }},
	}
	for _, lvl := range []OptimizeLevel{OptimizeOff, OptimizeFull} {
		for _, policy := range policies {
			t.Run(fmt.Sprintf("%s/optimize=%d", policy.name, lvl), func(t *testing.T) {
				plat := newFakeCluster(3)
				plat.setLoads(9, 0, 0)
				run(t, plat, policy.new(), lvl)
				if execs := plat.execSnapshot(); execs[0] != 6 || execs[1]+execs[2] != 0 {
					t.Fatalf("execs = %v, want all 6 on the star's node 0", execs)
				}
				cluster := dist.NewCluster(3, 1)
				run(t, cluster, policy.new(), lvl)
				st := cluster.Stats()
				if st.Transfers != 0 || st.Execs[0] != 6 {
					t.Fatalf("dist.Cluster: transfers = %d, execs = %v; want 0 and all 6 on node 0",
						st.Transfers, st.Execs)
				}
			})
		}
	}
}

// TestStarChainHandsOffAtNodeBoundaries: a chained star has no node
// boundaries to hand off at any more. Under RoundRobin the fold idiom's
// unfoldings all stay in one chain on the star's node — a driver and at most
// three links, as under the default Static policy.
func TestStarChainHandsOffAtNodeBoundaries(t *testing.T) {
	leakcheck.Check(t)
	const n = 16
	plat := newFakeCluster(2)
	net, _ := foldIdiom(cntExit(n + 1))
	inst := NewNetwork(net, Options{Platform: plat, Placer: &RoundRobin{}}).Start()
	for _, r := range foldReadings(n + 1) {
		inst.Send(r)
	}
	r := <-inst.Out
	if acc, _ := r.Field("acc"); acc != (n+1)*(n+2)/2 {
		t.Fatalf("acc = %v", acc)
	}
	links := len(inst.LinkStats())
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	if execs := plat.execSnapshot(); links > 3 || execs[1] != 0 {
		t.Fatalf("RoundRobin: %d links, execs %v; want <= 3 links, none on node 1", links, execs)
	}
}
