package simnet

import (
	"fmt"
	"math"

	"snet/internal/sched"
)

// Testbed models the paper's evaluation platform.
type Testbed struct {
	// Nodes and CPUs describe the cluster (paper: 8 nodes × 2 CPUs).
	Nodes, CPUs int
	// Width is the image width in pixels (bytes per row = 3·Width).
	Width int
	// BusBytesPerSec is the shared Ethernet bandwidth (100 Mbit ⇒ 12.5 MB/s).
	BusBytesPerSec float64
	// MsgLatency is the per-message latency in seconds.
	MsgLatency float64
	// MemBytesPerSec is the master's copy/assembly speed.
	MemBytesPerSec float64
	// RecordOverhead is the S-Net runtime's per-record handling cost on
	// the master (record management, matching, serialization setup).
	RecordOverhead float64
	// BoxTax multiplies box compute under the S-Net runtime (wrapper and
	// scheduling cost around the identical kernel).
	BoxTax float64
	// Solo taxes are fitted constants reproducing the paper's 1-node
	// column of Fig. 6, where the 2010 C prototype's runtime slowed
	// co-located computation by 27–46% and its service threads saturated
	// the second CPU (the paper's own 1-node numbers show almost no gain
	// from a second solver instance: 941.87 s → 829.74 s). Solo S-Net
	// runs therefore use ONE effective compute CPU plus the fitted tax;
	// both apply only when Nodes == 1 ("from only two nodes onwards the
	// overheads are amortised").
	SoloTaxStatic, SoloTaxStatic2, SoloTaxDynamic float64
}

// PaperTestbed returns the paper's platform with the given node count:
// 2 CPUs per node, 100 Mbit Ethernet, 3000-pixel-wide image.
func PaperTestbed(nodes int) Testbed {
	return Testbed{
		Nodes:          nodes,
		CPUs:           2,
		Width:          3000,
		BusBytesPerSec: 12.5e6,
		MsgLatency:     0.5e-3,
		MemBytesPerSec: 200e6,
		RecordOverhead: 2e-3,
		BoxTax:         1.02,
		SoloTaxStatic:  1.447,
		SoloTaxStatic2: 1.275,
		SoloTaxDynamic: 1.464,
	}
}

// PaperRowProfile returns the per-row rendering cost (seconds on one
// testbed CPU) of the calibrated 3000-row scene. The profile is uniform
// background plus a Gaussian object band and is calibrated so that
// (a) the total single-CPU time matches the paper's 1-node MPI run
// (650.99 s) and (b) the per-block maxima reproduce the paper's static MPI
// scaling on 2–8 nodes (the imbalance the dynamic scheduler exploits).
func PaperRowProfile(h int) []float64 {
	const (
		totalSeconds = 650.99
		bandMass     = 0.24 // fraction of work inside the object band
		bandCenter   = 0.22 // ×H
		bandSigma    = 0.09 // ×H
	)
	mu := bandCenter * float64(h)
	sigma := bandSigma * float64(h)
	base := (1 - bandMass) * totalSeconds / float64(h)
	// Discrete Gaussian normalized to carry exactly bandMass·total.
	weights := make([]float64, h)
	var wsum float64
	for y := 0; y < h; y++ {
		z := (float64(y) - mu) / sigma
		weights[y] = math.Exp(-z * z / 2)
		wsum += weights[y]
	}
	profile := make([]float64, h)
	for y := 0; y < h; y++ {
		profile[y] = base + bandMass*totalSeconds*weights[y]/wsum
	}
	return profile
}

// ScaleProfile rescales an arbitrary per-row cost profile (e.g. measured
// from the real ray tracer via raytrace.RowCosts) to the given total
// seconds, so measured scenes can drive the simulator.
func ScaleProfile(costs []float64, totalSeconds float64) []float64 {
	var sum float64
	for _, c := range costs {
		sum += c
	}
	out := make([]float64, len(costs))
	if sum == 0 {
		return out
	}
	for i, c := range costs {
		out[i] = c * totalSeconds / sum
	}
	return out
}

// sectionCost sums the profile over a span.
func sectionCost(profile []float64, s sched.Span) float64 {
	var c float64
	for y := s.Lo; y < s.Hi; y++ {
		c += profile[y]
	}
	return c
}

// rowBytes returns the pixel payload of one row.
func (tb Testbed) rowBytes() float64 { return 3 * float64(tb.Width) }

// chunkBytes returns the pixel payload of a span.
func (tb Testbed) chunkBytes(s sched.Span) float64 {
	return tb.rowBytes() * float64(s.Rows())
}

// cluster bundles the simulation resources of one run.
type cluster struct {
	sim    *Sim
	tb     Testbed
	cpus   []*Resource // per node
	bus    *Resource   // shared Ethernet
	master *Resource   // master runtime/message thread
}

func newCluster(tb Testbed, cpusPerNode int) *cluster {
	sim := NewSim()
	c := &cluster{
		sim:    sim,
		tb:     tb,
		cpus:   make([]*Resource, tb.Nodes),
		bus:    NewResource(sim, 1),
		master: NewResource(sim, 1),
	}
	for i := range c.cpus {
		c.cpus[i] = NewResource(sim, cpusPerNode)
	}
	return c
}

// snetComputeCPUs returns the effective per-node compute CPUs for S-Net
// variants: on a single node the prototype's runtime threads saturate the
// second CPU (see Testbed solo-tax comment).
func (tb Testbed) snetComputeCPUs() int {
	if tb.Nodes == 1 {
		return 1
	}
	return tb.CPUs
}

// transfer moves bytes from node a to node b, then calls done. Transfers
// within a node bypass the bus at memory speed.
func (c *cluster) transfer(a, b int, bytes float64, done func()) {
	if a == b {
		c.sim.After(bytes/c.tb.MemBytesPerSec, done)
		return
	}
	c.bus.Use(c.tb.MsgLatency+bytes/c.tb.BusBytesPerSec, done)
}

// masterWork runs a master-side record-handling step of duration d.
func (c *cluster) masterWork(d float64, done func()) {
	c.master.Use(d, done)
}

// MPIStatic simulates the paper's MPI baseline with procsPerNode ranks per
// node: block distribution, every rank renders its section on its own CPU,
// non-root ranks send chunks to the root, the root assembles. Returns the
// makespan in seconds.
func MPIStatic(tb Testbed, profile []float64, procsPerNode int) float64 {
	c := newCluster(tb, tb.CPUs)
	ranks := tb.Nodes * procsPerNode
	spans := sched.Block(len(profile), ranks)
	remaining := ranks
	for r := 0; r < ranks; r++ {
		r := r
		node := r % tb.Nodes
		span := spans[r]
		cost := sectionCost(profile, span)
		c.sim.At(0, func() {
			c.cpus[node].Use(cost, func() {
				c.transfer(node, 0, c.tb.chunkBytes(span), func() {
					// root assembles the sub-result
					c.masterWork(c.tb.chunkBytes(span)/c.tb.MemBytesPerSec, func() {
						remaining--
					})
				})
			})
		})
	}
	return c.sim.Run()
}

// SNetStatic simulates the Fig. 2 static S-Net design (solversPerNode == 1)
// and the Section V (solver!<cpu>)!@<node> refinement (solversPerNode == 2):
// tasks = Nodes·solversPerNode block sections, section i placed on node
// i mod Nodes, with S-Net record handling on the master and the box tax on
// solver compute. Returns the makespan in seconds.
func SNetStatic(tb Testbed, profile []float64, solversPerNode int) float64 {
	c := newCluster(tb, tb.snetComputeCPUs())
	tasks := tb.Nodes * solversPerNode
	spans := sched.Block(len(profile), tasks)
	tax := tb.BoxTax
	if tb.Nodes == 1 {
		if solversPerNode > 1 {
			tax *= tb.SoloTaxStatic2
		} else {
			tax *= tb.SoloTaxStatic
		}
	}
	const sectionMsgBytes = 1024
	for i := 0; i < tasks; i++ {
		i := i
		node := i % tb.Nodes
		span := spans[i]
		cost := sectionCost(profile, span) * tax
		c.sim.At(0, func() {
			// splitter emits the section record (master runtime thread)
			c.masterWork(tb.RecordOverhead, func() {
				c.transfer(0, node, sectionMsgBytes, func() {
					c.cpus[node].Use(cost, func() {
						c.transfer(node, 0, c.tb.chunkBytes(span), func() {
							// merger consumes the chunk
							c.masterWork(tb.RecordOverhead+c.tb.chunkBytes(span)/c.tb.MemBytesPerSec, func() {})
						})
					})
				})
			})
		})
	}
	return c.sim.Run()
}

// SNetDynamic simulates the Fig. 4 token-based dynamic design: the first
// `tokens` sections carry distinct node-token values (value mod Nodes
// selects the node), the rest queue at the master's synchrocells and are
// re-dispatched as tokens return with completed chunks. Returns the
// makespan in seconds.
func SNetDynamic(tb Testbed, profile []float64, tasks, tokens int, factoring bool) (float64, error) {
	var spans []sched.Span
	var err error
	if factoring {
		spans, err = sched.PaperFactoring(len(profile), tasks)
		if err != nil {
			return 0, err
		}
	} else {
		spans = sched.Block(len(profile), tasks)
	}
	if tokens > tasks {
		tokens = tasks
	}
	if tokens <= 0 {
		return 0, fmt.Errorf("simnet: dynamic needs at least one token")
	}
	c := newCluster(tb, tb.snetComputeCPUs())
	tax := tb.BoxTax
	if tb.Nodes == 1 {
		tax *= tb.SoloTaxDynamic
	}
	const sectionMsgBytes = 1024
	const tokenMsgBytes = 64

	queue := []int{} // indices of sections waiting for a token

	// nodeOfToken maps a token value onto a compute node. Distributed
	// S-Net leaves the number→machine mapping implementation-dependent;
	// like the prototype's MPI backend we use block (contiguous) mapping,
	// so 16 tokens on 8 nodes put two solver instances on every node —
	// one per CPU, the paper's sweet spot — and tokens == tasks
	// degenerates to a contiguous static split, reproducing the paper's
	// "benefits of dynamic scheduling are lost" worst case.
	nodeOfToken := func(v int) int {
		n := v * tb.Nodes / tokens
		if n >= tb.Nodes {
			n = tb.Nodes - 1
		}
		return n
	}

	// dispatch sends section i to the node of token value v and recycles
	// the token when the chunk has been produced.
	var dispatch func(i, v int)
	dispatch = func(i, v int) {
		node := nodeOfToken(v)
		span := spans[i]
		cost := sectionCost(profile, span) * tax
		c.transfer(0, node, sectionMsgBytes, func() {
			c.cpus[node].Use(cost, func() {
				// The chunk/token filter runs on the node: chunk and token
				// travel back independently.
				c.transfer(node, 0, c.tb.chunkBytes(span), func() {
					c.masterWork(tb.RecordOverhead+c.tb.chunkBytes(span)/c.tb.MemBytesPerSec, func() {})
				})
				c.transfer(node, 0, tokenMsgBytes, func() {
					// synchrocell joins the token with the next waiting
					// section (master runtime thread).
					c.masterWork(tb.RecordOverhead, func() {
						if len(queue) == 0 {
							return
						}
						next := queue[0]
						queue = queue[1:]
						dispatch(next, v)
					})
				})
			})
		})
	}

	for i := 0; i < tasks; i++ {
		i := i
		c.sim.At(0, func() {
			// splitter emits records in order on the master thread
			c.masterWork(tb.RecordOverhead, func() {
				if i < tokens {
					dispatch(i, i)
				} else {
					queue = append(queue, i)
				}
			})
		})
	}
	return c.sim.Run(), nil
}

// Fig6Row is one node count of the paper's Fig. 6 (left): absolute
// runtimes of the five variants.
type Fig6Row struct {
	Nodes       int
	SNetStatic  float64
	SNetStatic2 float64
	MPI         float64
	MPI2        float64
	BestDynamic float64
}

// Fig6 regenerates the paper's Fig. 6 (left) series. Per the paper, the
// dynamic variant uses nodes·8 tasks and tasks/2 tokens with block
// scheduling.
func Fig6(profile []float64, nodeCounts []int) ([]Fig6Row, error) {
	rows := make([]Fig6Row, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		tb := PaperTestbed(n)
		tasks := 8 * n
		dyn, err := SNetDynamic(tb, profile, tasks, tasks/2, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{
			Nodes:       n,
			SNetStatic:  SNetStatic(tb, profile, 1),
			SNetStatic2: SNetStatic(tb, profile, 2),
			MPI:         MPIStatic(tb, profile, 1),
			MPI2:        MPIStatic(tb, profile, 2),
			BestDynamic: dyn,
		})
	}
	return rows, nil
}

// SpeedupRow is one node count of Fig. 6 (right): speed-up of the two
// S-Net contenders versus MPI with 2 processes per node.
type SpeedupRow struct {
	Nodes       int
	Static2CPU  float64
	BestDynamic float64
}

// Fig6Speedup derives the paper's Fig. 6 (right) from Fig. 6 (left).
func Fig6Speedup(rows []Fig6Row) []SpeedupRow {
	out := make([]SpeedupRow, len(rows))
	for i, r := range rows {
		out[i] = SpeedupRow{
			Nodes:       r.Nodes,
			Static2CPU:  r.MPI2 / r.SNetStatic2,
			BestDynamic: r.MPI2 / r.BestDynamic,
		}
	}
	return out
}

// Fig5Point is one measurement of Fig. 5: runtime for a (tasks, tokens)
// pair on the 8-node testbed.
type Fig5Point struct {
	Tasks, Tokens int
	Runtime       float64
}

// Fig5 regenerates a panel of the paper's Fig. 5 on the 8-node testbed:
// runtime versus token count for each task count, under factoring or block
// scheduling. Token counts exceeding the task count are clamped, as in the
// splitter (every section simply gets a token).
func Fig5(profile []float64, factoring bool, taskCounts, tokenCounts []int) ([]Fig5Point, error) {
	tb := PaperTestbed(8)
	var pts []Fig5Point
	for _, tasks := range taskCounts {
		for _, tokens := range tokenCounts {
			rt, err := SNetDynamic(tb, profile, tasks, tokens, factoring)
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig5Point{Tasks: tasks, Tokens: tokens, Runtime: rt})
		}
	}
	return pts, nil
}

// PaperTaskTokenCounts are the x-axis and series values of Fig. 5.
var PaperTaskTokenCounts = []int{8, 16, 32, 48, 64, 72}

// PaperNodeCounts are the node counts of Fig. 6.
var PaperNodeCounts = []int{1, 2, 4, 6, 8}

// PaperFig6 holds the published Fig. 6 (left) values in seconds, one row
// per PaperNodeCounts entry; Fig6Speedup(PaperFig6) is the published
// Fig. 6 (right). TestFig6WithinTolerance states how close Fig6 comes.
var PaperFig6 = []Fig6Row{
	{Nodes: 1, SNetStatic: 941.87, SNetStatic2: 829.74, MPI: 650.99, MPI2: 401.80, BestDynamic: 953.18},
	{Nodes: 2, SNetStatic: 402.75, SNetStatic2: 329.14, MPI: 405.95, MPI2: 211.77, BestDynamic: 228.52},
	{Nodes: 4, SNetStatic: 217.97, SNetStatic2: 204.23, MPI: 213.43, MPI2: 139.00, BestDynamic: 119.77},
	{Nodes: 6, SNetStatic: 158.58, SNetStatic2: 143.33, MPI: 163.83, MPI2: 105.61, BestDynamic: 76.39},
	{Nodes: 8, SNetStatic: 132.66, SNetStatic2: 121.99, MPI: 136.23, MPI2: 87.01, BestDynamic: 61.84},
}
