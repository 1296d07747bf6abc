package workloads

import (
	"fmt"
	"time"

	"snet/internal/dist"
	"snet/internal/mpi"
	"snet/internal/mpiray"
	"snet/internal/raytrace"
	"snet/internal/sched"
	"snet/internal/snetray"
)

// Render geometry, shared by both render workloads (bench_test.go's "live"
// scale: the paper's scene at a size one op takes tens of milliseconds).
const (
	RenderW, RenderH = 128, 96
	RenderObjects    = 100
	renderNodes      = 4
	renderCPUs       = 2
	// ScenePool is how many scenes one run renders, cycling. Render cost
	// varies by about ±15% from scene to scene, so a run's figures are
	// taken over many scenes, not one: with a single scene per seed the
	// seed, not the code, would set the number.
	ScenePool = 128
)

// Scenes generates the run's scene pool from the seed. kind is "unbalanced"
// (render_fig6) or "skewed" (render_skewed).
func Scenes(kind string, seed int64, n int) []*raytrace.Scene {
	out := make([]*raytrace.Scene, n)
	for i := range out {
		s := SceneSeed(seed, i)
		if kind == "skewed" {
			out[i] = raytrace.SkewedScene(RenderObjects, s)
		} else {
			out[i] = raytrace.UnbalancedScene(RenderObjects, s)
		}
	}
	return out
}

// SceneSeed derives the i-th scene's generator seed from the run seed.
func SceneSeed(seed int64, i int) int64 { return seed*1000003 + int64(i) }

// armOut is what one arm's render returns besides the image.
type armOut struct {
	cluster *dist.Stats
	mpi     *mpi.Stats
}

// arm is one way of rendering a scene.
type arm struct {
	name string // key of the per-arm figures
	span string // span name in the trace
	main bool   // the arm whose renders are the workload's ops
	run  func(sc *raytrace.Scene) (*raytrace.Image, armOut, error)
}

type renderSession struct {
	scenes []*raytrace.Scene
	refs   []*raytrace.Image // sequential-kernel images, made on first use
	arms   []arm
	next   int
	// mark is where the last recorder-on slice of a traced run started in
	// the pool: the recorder-off slice that follows replays the same
	// scenes, so the two differ by the tracing alone.
	mark int
}

func (s *renderSession) Close(*Meter) error { return nil }

// Slice renders scene after scene until d has passed. Each cycle takes the
// next scene of the pool and renders it once per arm, in the arms' fixed
// order (ABAB interleaving: every arm sees the same scenes under the same
// host state). Every image is compared pixel for pixel with the sequential
// kernel's.
func (s *renderSession) Slice(d time.Duration, m *Meter) error {
	if m.Trace.Enabled() {
		s.mark = s.next
	} else if m.Trace != nil {
		s.next = s.mark
	}
	deadline := time.Now().Add(d)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		i := s.next % len(s.scenes)
		s.next++
		sc := s.scenes[i]
		if s.refs[i] == nil && s.arms[0].name != "seq" {
			// Outside every arm's timing: the sequential kernel's image,
			// which every arm's output is compared with. Where the
			// sequential kernel is itself the first arm, its image is it.
			span := m.Trace.Begin("raytrace.reference", 0, 0)
			s.refs[i], _ = raytrace.Render(sc, RenderW, RenderH)
			span.End()
		}
		for _, a := range s.arms {
			op := m.NextOp()
			var out armOut
			var err error
			var took time.Duration
			// render runs the arm once and compares its image with the
			// reference; it returns the number of correct ops (0 or 1).
			render := func() int {
				span := m.Trace.Begin(a.span, op, 0)
				cpu0, t0 := cpuNow(), time.Now()
				var img *raytrace.Image
				img, out, err = a.run(sc)
				took = time.Since(t0)
				m.Count("_cpu_ms."+a.name, ms(cpuNow()-cpu0))
				span.End()
				if s.refs[i] == nil && err == nil {
					s.refs[i] = img
				}
				if err != nil || !img.Equal(s.refs[i]) {
					return 0
				}
				return 1
			}
			good := 0
			if a.main {
				m.Main(func() int { good = render(); return good })
				m.Op(took)
			} else {
				good = render()
			}
			m.Arm(a.name, took)
			m.Checked(1, 1-good, fmt.Sprintf("%s arm, scene %d: err=%v, image differs from the sequential kernel's", a.name, i, err))
			if a.main && out.cluster != nil {
				countCluster(m, out.cluster, took)
				m.Snap(a.span, "dist.execs", "dist.transfers", "dist.bytes", "dist.steals")
			}
			if out.mpi != nil {
				m.Count("mpi.messages", float64(out.mpi.Messages))
				m.Count("mpi.bytes", float64(out.mpi.Bytes))
			}
		}
	}
	return nil
}

// countCluster folds one main-arm render's cluster accounting into the
// per-layer counters.
func countCluster(m *Meter, st *dist.Stats, wall time.Duration) {
	var execs int64
	for n, e := range st.Execs {
		execs += e
		m.Count(fmt.Sprintf("_busy_ms.%d", n), ms(st.Busy[n]))
	}
	m.Count("dist.execs", float64(execs))
	m.Count("dist.transfers", float64(st.Transfers))
	m.Count("dist.messages", float64(st.Batches))
	m.Count("dist.bytes", float64(st.Bytes))
	m.Count("dist.steals", float64(st.Steals))
	m.Count("dist.migrated", float64(st.Migrated))
	m.Count("_slot_ms", ms(wall)*float64(len(st.Execs)*renderCPUs))
}

func snetArm(name string, main bool, cfg snetray.Config, cost bool) arm {
	return arm{name: name, span: "snetray.render." + name, main: main,
		run: func(sc *raytrace.Scene) (*raytrace.Image, armOut, error) {
			c := cfg
			c.Scene, c.W, c.H = sc, RenderW, RenderH
			c.Nodes, c.CPUs = renderNodes, renderCPUs
			c.Cluster = dist.NewCluster(renderNodes, renderCPUs)
			if cost {
				// 200 µs per hop, 100 Mbit/s: a modelled interconnect,
				// so a steal pays for the section it migrates.
				c.Cluster.SetTransferCost(200*time.Microsecond, 12.5e6)
			}
			res, err := snetray.Render(c)
			if err != nil {
				return nil, armOut{}, err
			}
			return res.Image, armOut{cluster: &res.Cluster}, nil
		}}
}

func newRenderSession(kind string, cfg *Config, arms []arm) Session {
	span := cfg.Trace.Begin("raytrace.scenes", 0, 0)
	scenes := Scenes(kind, cfg.Seed, ScenePool)
	span.End()
	return &renderSession{scenes: scenes, refs: make([]*raytrace.Image, len(scenes)), arms: arms}
}

// setupFig6 is the paper's own comparison (Figs. 5-6) at reduced scale:
// sequential kernel, S-Net static (Fig. 2), S-Net dynamic with factoring
// (Fig. 4; one op) and the MPI master-worker baseline, on a 4x2 cluster.
func setupFig6(cfg *Config) (Session, error) {
	spans := sched.Block(RenderH, 16)
	return newRenderSession("unbalanced", cfg, []arm{
		{name: "seq", span: "raytrace.render", run: func(sc *raytrace.Scene) (*raytrace.Image, armOut, error) {
			img, _ := raytrace.Render(sc, RenderW, RenderH)
			return img, armOut{}, nil
		}},
		snetArm("static", false, snetray.Config{Mode: snetray.Static, Tasks: renderNodes}, false),
		snetArm("dynamic", true, snetray.Config{Mode: snetray.Dynamic, Policy: snetray.FactoringPolicy, Tasks: 32, Tokens: 8}, false),
		{name: "mpi", span: "mpiray.render", run: func(sc *raytrace.Scene) (*raytrace.Image, armOut, error) {
			img, st, err := mpiray.RenderMasterWorker(sc, RenderW, RenderH, spans,
				mpiray.Options{Procs: renderNodes*renderCPUs + 1, Cluster: dist.NewCluster(renderNodes, renderCPUs)})
			return img, armOut{mpi: &st}, err
		}},
	}), nil
}

// setupSkewed is the "dynamic load balancing wins" half of the claim: a
// sharply skewed scene, every section held for 8x its real cost in virtual
// time so that the cluster's 8 slots, not the host's cores, set the
// makespan; token-dynamic block scheduling against least-loaded placement
// with work stealing (one op).
func setupSkewed(cfg *Config) (Session, error) {
	const tasks, scale = 32, 8
	return newRenderSession("skewed", cfg, []arm{
		snetArm("block", false, snetray.Config{Mode: snetray.Dynamic, Policy: snetray.BlockPolicy, Tasks: tasks, Tokens: 8, SolveScale: scale}, true),
		snetArm("steal", true, snetray.Config{Mode: snetray.DynamicSteal, Tasks: tasks, SolveScale: scale}, true),
	}), nil
}
