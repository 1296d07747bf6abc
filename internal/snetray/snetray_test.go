package snetray

import (
	"strings"
	"testing"
	"time"

	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/leakcheck"
	"snet/internal/mpiray"
	"snet/internal/raytrace"
	"snet/internal/sched"
)

const testW, testH = 40, 32

func reference(t *testing.T, scene *raytrace.Scene) *raytrace.Image {
	t.Helper()
	img, _ := raytrace.Render(scene, testW, testH)
	return img
}

func TestStaticRenderMatchesSequential(t *testing.T) {
	scene := raytrace.BalancedScene(30, 1)
	want := reference(t, scene)
	res, err := Render(Config{
		Scene: scene, W: testW, H: testH,
		Nodes: 4, CPUs: 1, Tasks: 8, Mode: Static,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Image.Equal(want) {
		t.Fatal("static S-Net image differs from sequential render")
	}
	// every node must have executed at least one solver call
	for n, e := range res.Cluster.Execs {
		if e == 0 {
			t.Fatalf("node %d idle: %v", n, res.Cluster.Execs)
		}
	}
	if res.Cluster.Transfers == 0 {
		t.Fatal("no transfers accounted for placed solvers")
	}
}

func TestStatic2CPURenderMatchesSequential(t *testing.T) {
	scene := raytrace.UnbalancedScene(40, 2)
	want := reference(t, scene)
	res, err := Render(Config{
		Scene: scene, W: testW, H: testH,
		Nodes: 2, CPUs: 2, Tasks: 8, Mode: Static2CPU,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Image.Equal(want) {
		t.Fatal("static 2CPU image differs")
	}
}

func TestDynamicRenderMatchesSequential(t *testing.T) {
	scene := raytrace.UnbalancedScene(50, 3)
	want := reference(t, scene)
	for _, policy := range []Policy{BlockPolicy, FactoringPolicy} {
		res, err := Render(Config{
			Scene: scene, W: testW, H: testH,
			Nodes: 4, CPUs: 2, Tasks: 8, Tokens: 4,
			Mode: Dynamic, Policy: policy,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !res.Image.Equal(want) {
			t.Fatalf("%s: dynamic image differs", policy)
		}
	}
}

// TestDynamicStealRenderMatchesSequential verifies the load-aware design:
// untagged sections placed at dispatch time, work stealing on, the image
// still exactly matches the sequential render, and the steal counters stay
// consistent. (Whether a steal actually fires during a real render is a
// timing race — guaranteed-steal coverage lives in internal/dist's
// ExecStealable tests, and the skewed benchmarks record steals_op as the
// engagement evidence.)
func TestDynamicStealRenderMatchesSequential(t *testing.T) {
	scene := raytrace.SkewedScene(40, 2)
	want := reference(t, scene)
	res, err := Render(Config{
		Scene: scene, W: testW, H: testH,
		Nodes: 4, CPUs: 1, Tasks: 16, Mode: DynamicSteal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Image.Equal(want) {
		t.Fatal("dynamic-steal image differs from sequential render")
	}
	total := int64(0)
	for _, e := range res.Cluster.Execs {
		total += e
	}
	if total == 0 {
		t.Fatal("no executions accounted")
	}
	if res.Cluster.Migrated != res.Cluster.Steals {
		t.Fatalf("migrated=%d steals=%d; every steal of a box execution migrates its record",
			res.Cluster.Migrated, res.Cluster.Steals)
	}
	if res.Cluster.Migrated > res.Cluster.Transfers {
		t.Fatalf("migrated=%d > transfers=%d; migrations must be counted as record hops",
			res.Cluster.Migrated, res.Cluster.Transfers)
	}
	// SolveScale must not change the image either (it only stretches the
	// resource model's notion of section cost).
	res2, err := Render(Config{
		Scene: scene, W: testW, H: testH,
		Nodes: 2, CPUs: 2, Tasks: 8, Mode: DynamicSteal, SolveScale: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Image.Equal(want) {
		t.Fatal("scaled dynamic-steal image differs from sequential render")
	}
}

func TestDynamicTokenSweepCompletes(t *testing.T) {
	scene := raytrace.UnbalancedScene(30, 4)
	want := reference(t, scene)
	for _, tokens := range []int{1, 3, 6, 12} {
		res, err := Render(Config{
			Scene: scene, W: testW, H: testH,
			Nodes: 3, CPUs: 2, Tasks: 12, Tokens: tokens,
			Mode: Dynamic, Policy: BlockPolicy,
		})
		if err != nil {
			t.Fatalf("tokens=%d: %v", tokens, err)
		}
		if !res.Image.Equal(want) {
			t.Fatalf("tokens=%d: image differs", tokens)
		}
	}
}

func TestRenderValidation(t *testing.T) {
	scene := raytrace.BalancedScene(5, 1)
	if _, err := Render(Config{Scene: scene, W: 8, H: 8, Nodes: 0, CPUs: 1, Tasks: 2}); err == nil {
		t.Fatal("Nodes=0 should error")
	}
	if _, err := Render(Config{
		Scene: scene, W: 8, H: 8, Nodes: 1, CPUs: 1, Tasks: 2, Mode: Dynamic, Tokens: 0,
	}); err == nil {
		t.Fatal("Dynamic with Tokens=0 should error")
	}
	if _, err := Render(Config{
		Scene: scene, W: 8, H: 8, Nodes: 1, CPUs: 1, Tasks: 2, Mode: Dynamic, Tokens: 5,
	}); err == nil {
		t.Fatal("Tokens > Tasks should error")
	}
}

func TestFactoringRequiresDivisibleTasks(t *testing.T) {
	scene := raytrace.BalancedScene(5, 1)
	_, err := Render(Config{
		Scene: scene, W: 8, H: 8, Nodes: 1, CPUs: 1, Tasks: 7, Tokens: 3,
		Mode: Dynamic, Policy: FactoringPolicy,
	})
	if err == nil || !strings.Contains(err.Error(), "divisible") {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedClusterAccumulates(t *testing.T) {
	scene := raytrace.BalancedScene(10, 6)
	cluster := dist.NewCluster(2, 1)
	for i := 0; i < 2; i++ {
		if _, err := Render(Config{
			Scene: scene, W: testW, H: testH,
			Nodes: 2, CPUs: 1, Tasks: 4, Mode: Static, Cluster: cluster,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Per run: 1 splitter + 4 solvers + 1 init + 3 merges + 1 genImg = 10
	// box executions; two runs on the shared cluster accumulate 20.
	var total int64
	for _, e := range cluster.Stats().Execs {
		total += e
	}
	if total != 20 {
		t.Fatalf("shared cluster execs = %d, want 20", total)
	}
}

func TestModeAndPolicyStrings(t *testing.T) {
	if Static.String() != "S-Net Static" || Static2CPU.String() != "S-Net Static 2CPU" ||
		Dynamic.String() != "S-Net Dynamic" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode empty")
	}
	if BlockPolicy.String() != "block" || FactoringPolicy.String() != "factoring" {
		t.Fatal("policy strings wrong")
	}
}

func TestDynamicUsesAllNodesWhenTokensSpan(t *testing.T) {
	scene := raytrace.UnbalancedScene(40, 8)
	res, err := Render(Config{
		Scene: scene, W: testW, H: testH,
		Nodes: 4, CPUs: 2, Tasks: 16, Tokens: 8,
		Mode: Dynamic, Policy: BlockPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n, e := range res.Cluster.Execs {
		if e == 0 {
			t.Fatalf("node %d never executed: %v", n, res.Cluster.Execs)
		}
	}
}

// TestOptimizerPixelEquality is the application-level differential check:
// the fused, flattened render network must produce a pixel-identical image
// to the un-optimized instantiation of the same network (the end-to-end
// counterpart of internal/netdiff's record-level harness).
func TestOptimizerPixelEquality(t *testing.T) {
	scene := raytrace.BalancedScene(30, 1)
	base := Config{
		Scene: scene, W: testW, H: testH,
		Nodes: 4, CPUs: 1, Tasks: 8, Mode: Static,
	}
	off := base
	off.Optimize = core.OptimizeOff
	refRes, err := Render(off)
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := Render(base)
	if err != nil {
		t.Fatal(err)
	}
	if !optRes.Image.Equal(refRes.Image) {
		t.Fatal("optimized render differs from OptimizeOff render")
	}
	if !optRes.Opt.Enabled {
		t.Fatalf("optimizer stats not recorded: %+v", optRes.Opt)
	}
	if optRes.Opt.EntitiesAfter >= optRes.Opt.EntitiesBefore {
		t.Fatalf("optimizer did not shrink the render network: %+v", optRes.Opt)
	}
}

// TestCrossImplementationAgreement checks that the S-Net-coordinated
// renderer and the message-passing master/worker baseline produce
// pixel-identical images from the same kernel — the property that makes the
// paper's performance comparison meaningful.
func TestCrossImplementationAgreement(t *testing.T) {
	scene := raytrace.UnbalancedScene(60, 13)
	snetRes, err := Render(Config{
		Scene: scene, W: testW, H: testH,
		Nodes: 4, CPUs: 2, Tasks: 12, Tokens: 6,
		Mode: Dynamic, Policy: BlockPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	mpiImg, _, err := mpiray.RenderMasterWorker(scene, testW, testH,
		sched.Block(testH, 12), mpiray.Options{Procs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !snetRes.Image.Equal(mpiImg) {
		t.Fatal("S-Net and MPI renders differ")
	}
}

// TestDynamicStealRenderPictureStaysHome pins where DynamicSteal's records
// travel on the render_skewed benchmark's configuration: a 128×96 skewed
// scene of 100 objects, 4×2 cluster, 32 tasks, a 200 µs / 100 Mbit/s
// interconnect, sections held 8× their cost.
//
// Only solver!@<node> places work. A section leaves the splitter's node for
// its placed solver at most once, and its chunk comes back at most once:
// two hops per task, none when the section is placed at home. A steal moves
// the section once more, and the cluster counts that hop in Migrated. The
// merger's star and the picture it assembles stay on the merger's node, so
//
//	Transfers ≤ 2·Tasks + Migrated.
//
// Placing each star unfolding by policy moved the picture under assembly
// from node to node, an order of magnitude more hops than that.
func TestDynamicStealRenderPictureStaysHome(t *testing.T) {
	leakcheck.Check(t)
	const w, h, nodes, cpus, tasks = 128, 96, 4, 2, 32
	scene := raytrace.SkewedScene(100, 2)
	want, _ := raytrace.Render(scene, w, h)
	cluster := dist.NewCluster(nodes, cpus)
	cluster.SetTransferCost(200*time.Microsecond, 12.5e6)
	res, err := Render(Config{
		Scene: scene, W: w, H: h,
		Nodes: nodes, CPUs: cpus, Tasks: tasks, Mode: DynamicSteal, SolveScale: 8,
		Cluster: cluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Image.Equal(want) {
		t.Fatal("dynamic-steal image differs from sequential render")
	}
	st := res.Cluster
	if bound := 2*tasks + st.Migrated; st.Transfers > bound {
		t.Fatalf("Transfers = %d, want <= 2·Tasks + Migrated = %d (migrated %d)",
			st.Transfers, bound, st.Migrated)
	}
	t.Logf("transfers %d, migrated %d, bound %d", st.Transfers, st.Migrated, 2*tasks+st.Migrated)
}
