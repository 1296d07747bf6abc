// Package snetray is the paper's application layer: the ray tracer
// coordinated by S-Net. It provides the Go implementations of the paper's
// boxes (splitter, solver, init, merge, genImg), the S-Net source text of
// the three network designs — the static fork–join of Fig. 2 with the
// Fig. 3 merger, the two-solvers-per-node static variant of Section V, and
// the dynamically load-balanced design of Fig. 4 — and a driver that
// compiles and runs them on a dist.Cluster platform.
package snetray

import (
	"context"
	"fmt"
	"sync"
	"time"

	"snet/internal/compile"
	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/lang"
	"snet/internal/raytrace"
	"snet/internal/record"
	"snet/internal/sched"
)

// Mode selects the network design.
type Mode int

// Network designs from the paper, plus the load-aware extension.
const (
	// Static is Fig. 2: splitter .. solver!@<node> .. merger .. genImg.
	Static Mode = iota
	// Static2CPU is the Section V variant (solver!<cpu>)!@<node> with two
	// solver instances per node.
	Static2CPU
	// Dynamic is Fig. 4: token-based dynamic load balancing.
	Dynamic
	// DynamicSteal goes past the paper's token scheme: placement becomes
	// a runtime decision of the coordination layer (the S+Net view of
	// placement as an extra-functional concern). The splitter emits
	// untagged sections; the indexed placement combinator dispatches each
	// one through a fresh solver replica on the node the placement policy
	// (default core.LeastLoaded) picks at that moment, and solver
	// executions queued on a busy node may be claimed by an idle node
	// (work stealing), with the migrated section charged to the cluster's
	// transfer-cost model.
	DynamicSteal
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Static:
		return "S-Net Static"
	case Static2CPU:
		return "S-Net Static 2CPU"
	case Dynamic:
		return "S-Net Dynamic"
	case DynamicSteal:
		return "S-Net Dynamic Steal"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Policy selects how the splitter sizes sections in Dynamic mode.
type Policy int

// Section scheduling policies from Section V.
const (
	// BlockPolicy divides the image into equal sections.
	BlockPolicy Policy = iota
	// FactoringPolicy uses the paper's simple factoring variant
	// (factor 3, two batches).
	FactoringPolicy
)

// String names the policy.
func (p Policy) String() string {
	if p == FactoringPolicy {
		return "factoring"
	}
	return "block"
}

// Config parameterizes a coordinated render.
type Config struct {
	Scene *raytrace.Scene
	W, H  int
	// Nodes is the cluster size; CPUs the per-node CPU slots.
	Nodes int
	CPUs  int
	// Tasks is the number of sections the splitter creates.
	Tasks int
	// Tokens is the number of node tokens circulating in Dynamic mode;
	// ignored otherwise.
	Tokens int
	Mode   Mode
	Policy Policy
	// Placer overrides the placement policy the runtime's dynamic
	// placement sites use. Nil keeps the mode's default: static tag
	// placement for the paper's designs, core.LeastLoaded for
	// DynamicSteal.
	Placer core.Placer
	// SolveScale models paper-scale sections on a reduced bench render:
	// when above 1, the solver renders its section (taking w wall time)
	// and then sleeps (SolveScale-1)·w while still holding its node's CPU
	// slot, so the cluster's resource model sees every section at
	// SolveScale× its real cost — with the scene's real skew preserved.
	// Scheduling quality then shows up in wall time on any host, even one
	// whose core count cannot physically parallelize the real render (see
	// docs/performance.md, "Scheduling & placement"). 0 or 1 disables.
	SolveScale int
	// Cluster, when non-nil, is used instead of a fresh one (lets callers
	// share a platform between variants or inject network delays).
	Cluster *dist.Cluster
	// Platform, when non-nil, overrides Cluster entirely: the render runs
	// on this platform — e.g. a wire.Cluster whose CPU slots live in
	// other OS processes. Result.Cluster is populated when the platform
	// has a Stats() dist.Stats method (wire.Cluster and dist.Cluster do).
	Platform core.Platform
	// Optimize selects the instantiation-time network optimizer level
	// (core.Optimize). The zero value enables it; core.OptimizeOff
	// renders on the network exactly as compiled.
	Optimize core.OptimizeLevel
	// Durability, when non-nil, journals the render's input record to
	// disk before it enters the network and acknowledges it only when the
	// whole derivation tree — every section, chunk, and the final picture
	// — has completed (core.Options.Durability). A render killed
	// mid-flight leaves the input unacknowledged; the next render over
	// the same directory replays it with Recover. The journal needs an
	// Ext codec that can encode the scene field — wireapp.RaytraceExt
	// provides one keyed by SceneSpec (use the spec's cached scene as
	// Config.Scene so journal and render agree).
	Durability *core.Durability
	// Recover, with Durability set, replays the journal's unacknowledged
	// inputs into the fresh render. When the journal holds a crashed
	// render's input, the replay IS the render and the configured scene
	// input is not re-sent; with a clean journal the render proceeds
	// normally. Result.Recovered reports which happened.
	Recover bool
	// BoxRetry is the per-box failure policy (core.Options.BoxRetry): the
	// zero value reports failures and lets partial emissions flow; with
	// Attempts >= 1, failed executions are retried with backoff and
	// exhausted records land in Result.DeadLetters.
	BoxRetry core.BoxRetry
}

// MergerSource is the paper's Fig. 3 merger network, verbatim.
const MergerSource = `
net merger
{
    box init  ( (chunk, <fst>) -> (pic));
    box merge ( (chunk, pic) -> (pic));
} connect
    ( ( init .. [ {} -> {<cnt=1>} ] )
      | []
    )
    .. ( [| {pic}, {chunk} |]
         .. ( ( merge
                .. [ {<cnt>} -> {<cnt+=1>}]
              )
              | []
            )
       )*{<tasks> == <cnt>} ;
`

// StaticSource is the paper's Fig. 2 static fork–join network, verbatim.
const StaticSource = `
net raytracing_stat
{
    box splitter( (scene, <nodes>, <tasks>)
                  -> (scene, sect, <node>, <tasks>, <fst>)
                   | (scene, sect, <node>, <tasks> ));
    box solver ( (scene, sect) -> (chunk));
    net merger ( (chunk, <fst>) -> (pic),
                 (chunk) -> (pic));
    box genImg ( (pic) -> ());
} connect
    splitter .. solver!@<node> .. merger .. genImg
`

// Static2CPUSource is the Section V refinement: "by adding one more index
// split combinator to the solver of Fig. 2 ((solver!<cpu>)!@<node>) and
// marking input data with a <cpu> tag of values 0 and 1".
const Static2CPUSource = `
net raytracing_stat2
{
    box splitter( (scene, <nodes>, <tasks>)
                  -> (scene, sect, <node>, <cpu>, <tasks>, <fst>)
                   | (scene, sect, <node>, <cpu>, <tasks> ));
    box solver ( (scene, sect) -> (chunk));
    net merger ( (chunk, <fst>) -> (pic),
                 (chunk) -> (pic));
    box genImg ( (pic) -> ());
} connect
    splitter .. (solver!<cpu>)!@<node> .. merger .. genImg
`

// DynamicSource is the Fig. 4 dynamically scheduled network. The chunk/token
// filter deviates from the paper's figure in one respect, documented in
// docs/combinators.md, "Fig. 4 as written": a choice of two filters routes
// the <fst> tag explicitly with the chunk, because under faithful
// flow-inheritance semantics the figure's single filter would attach <fst>
// to the recycled node token and the merger's init box would fire twice.
const DynamicSource = `
net raytracing_dyn
{
    box splitter( (scene, <nodes>, <tasks>)
                  -> (scene, sect, <node>, <tasks>, <fst>)
                   | (scene, sect, <node>, <tasks> )
                   | (scene, sect, <tasks>, <fst>)
                   | (scene, sect, <tasks> ));
    box solve ( (scene, sect) -> (chunk));
    net merger ( (chunk, <fst>) -> (pic),
                 (chunk) -> (pic));
    box genImg ( (pic) -> ());
} connect
    splitter
    .. ( ( ( solve .. ( [ {chunk, <node>, <fst>}
                          -> {chunk, <fst>}; {<node>} ]
                        | [ {chunk, <node>}
                            -> {chunk}; {<node>} ] )
           )!@<node>
           | []
         )
         .. ( [] | [| {sect}, {<node>} |] )
       ) * {chunk}
    .. merger .. genImg
`

// StealSource is the load-aware network of the DynamicSteal mode: the
// static fork–join of Fig. 2, but the splitter no longer stamps <node>
// tags — its sections leave untagged, and the placement combinator
// !@<node> resolves each one's node at dispatch time through the
// configured placement policy (an extra-functional scheduling decision,
// invisible in the network structure). Work stealing then lets sections
// queued on a busy node migrate to idle ones.
const StealSource = `
net raytracing_steal
{
    box splitter( (scene, <nodes>, <tasks>)
                  -> (scene, sect, <tasks>, <fst>)
                   | (scene, sect, <tasks> ));
    box solver ( (scene, sect) -> (chunk));
    net merger ( (chunk, <fst>) -> (pic),
                 (chunk) -> (pic));
    box genImg ( (pic) -> ());
} connect
    splitter .. solver!@<node> .. merger .. genImg
`

// The application's label vocabulary, interned once: box bodies run per
// section per render, so they use the symbol-keyed record API.
var (
	symScene = record.Intern("scene")
	symSect  = record.Intern("sect")
	symChunk = record.Intern("chunk")
	symPic   = record.Intern("pic")
	symNodes = record.Intern("nodes")
	symTasks = record.Intern("tasks")
	symNode  = record.Intern("node")
	symCPU   = record.Intern("cpu")
	symFst   = record.Intern("fst")
)

// imageSink collects the pictures genImg delivers.
type imageSink struct {
	mu   sync.Mutex
	pics []*raytrace.Image
}

func (s *imageSink) add(img *raytrace.Image) {
	s.mu.Lock()
	s.pics = append(s.pics, img)
	s.mu.Unlock()
}

// spans returns the section spans for the config.
func (cfg *Config) spans() ([]sched.Span, error) {
	if (cfg.Mode == Dynamic || cfg.Mode == DynamicSteal) && cfg.Policy == FactoringPolicy {
		return sched.PaperFactoring(cfg.H, cfg.Tasks)
	}
	return sched.Block(cfg.H, cfg.Tasks), nil
}

// registry builds the box registry for the config, delivering final images
// to the sink.
func (cfg *Config) registry(sink *imageSink) (*compile.Registry, error) {
	spans, err := cfg.spans()
	if err != nil {
		return nil, err
	}
	reg := compile.NewRegistry()
	reg.RegisterBox("splitter", func(c *core.BoxCall) error {
		scene := c.FieldSym(symScene).(*raytrace.Scene)
		nodes := c.TagSym(symNodes)
		tasks := c.TagSym(symTasks)
		if nodes <= 0 || tasks <= 0 || tasks != len(spans) {
			return fmt.Errorf("splitter: inconsistent nodes=%d tasks=%d spans=%d",
				nodes, tasks, len(spans))
		}
		for i, span := range spans {
			r := c.NewRecord().
				SetFieldSym(symScene, scene).
				SetFieldSym(symSect, raytrace.Section{Index: i, W: cfg.W, H: cfg.H, Y0: span.Lo, Y1: span.Hi}).
				SetTagSym(symTasks, tasks)
			if i == 0 {
				r.SetTagSym(symFst, 1)
			}
			switch cfg.Mode {
			case Static:
				r.SetTagSym(symNode, i%nodes)
			case Static2CPU:
				r.SetTagSym(symNode, i%nodes)
				r.SetTagSym(symCPU, (i/nodes)%cfg.CPUs)
			case Dynamic:
				// The first `tokens` sections carry distinct node-token
				// values; the platform maps value→node modulo Nodes, so
				// 16 tokens on 8 nodes give two solver instances per
				// node, one per CPU — the paper's sweet spot.
				if i < cfg.Tokens {
					r.SetTagSym(symNode, i)
				}
			case DynamicSteal:
				// Untagged: placement is the runtime scheduler's call.
			}
			c.Emit(r)
		}
		return nil
	})
	solve := SolverBox(cfg.SolveScale)
	reg.RegisterBox("solver", solve)
	reg.RegisterBox("solve", solve)
	reg.RegisterBox("init", func(c *core.BoxCall) error {
		chunk := c.FieldSym(symChunk).(raytrace.Chunk)
		img := raytrace.NewImage(chunk.W, chunk.H)
		img.SetChunk(chunk)
		c.Emit(c.NewRecord().SetFieldSym(symPic, img))
		return nil
	})
	reg.RegisterBox("merge", func(c *core.BoxCall) error {
		chunk := c.FieldSym(symChunk).(raytrace.Chunk)
		// In place: the pic field is consumed here and has one owner (the
		// record init or the previous merge emitted), and copying the same
		// chunk in again — a BoxRetry re-run — changes nothing.
		pic := c.FieldSym(symPic).(*raytrace.Image)
		pic.SetChunk(chunk)
		c.Emit(c.NewRecord().SetFieldSym(symPic, pic))
		return nil
	})
	reg.RegisterBox("genImg", func(c *core.BoxCall) error {
		sink.add(c.FieldSym(symPic).(*raytrace.Image))
		return nil
	})
	return reg, nil
}

// SolverBox returns the compute box's body — render one section, emit one
// chunk — parameterized by the SolveScale cost model. It is exported so a
// wire worker process (cmd/snetd) can register the identical body that the
// coordinator's network would run, making in-process and multi-process
// renders pixel-identical by construction.
func SolverBox(solveScale int) core.BoxFunc {
	return func(c *core.BoxCall) error {
		scene := c.FieldSym(symScene).(*raytrace.Scene)
		sect := c.FieldSym(symSect).(raytrace.Section)
		var start time.Time
		if solveScale > 1 {
			start = time.Now()
		}
		chunk, _ := raytrace.RenderSection(scene, sect)
		if solveScale > 1 {
			// Model the paper-scale section: keep the CPU slot for
			// (scale-1)× the real render time, preserving the scene's
			// per-section cost skew in the cluster's resource model.
			time.Sleep(time.Duration(solveScale-1) * time.Since(start))
		}
		c.Emit(c.NewRecord().SetFieldSym(symChunk, chunk))
		return nil
	}
}

// WorkerBoxes is the box table a worker process registers to serve renders:
// the compute boxes under both names the network sources use. The
// coordination boxes (splitter, merger, genImg) stay coordinator-resident.
func WorkerBoxes(solveScale int) map[string]core.BoxFunc {
	solve := SolverBox(solveScale)
	return map[string]core.BoxFunc{"solver": solve, "solve": solve}
}

// source returns the S-Net source text for the mode.
func (cfg *Config) source() string {
	switch cfg.Mode {
	case Static2CPU:
		return Static2CPUSource
	case Dynamic:
		return DynamicSource
	case DynamicSteal:
		return StealSource
	default:
		return StaticSource
	}
}

// progCache memoizes the parsed form of the (constant) network sources:
// renders recompile against their own registry, but the AST is immutable
// and shared, so the front end runs once per source text per process.
var progCache sync.Map // source text -> *lang.Program

func parsedSource(src string) (*lang.Program, error) {
	if p, ok := progCache.Load(src); ok {
		return p.(*lang.Program), nil
	}
	p, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	actual, _ := progCache.LoadOrStore(src, p)
	return actual.(*lang.Program), nil
}

// Build compiles the configured network, returning the toplevel entity and
// the sink that will receive the final image.
func (cfg *Config) build() (*core.Entity, *imageSink, error) {
	sink := &imageSink{}
	reg, err := cfg.registry(sink)
	if err != nil {
		return nil, nil, err
	}
	mergerProg, err := parsedSource(MergerSource)
	if err != nil {
		return nil, nil, fmt.Errorf("snetray: merger: %w", err)
	}
	mergerRes, err := compile.Program(mergerProg, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("snetray: merger: %w", err)
	}
	merger, _ := mergerRes.Net("merger")
	reg.RegisterNet("merger", merger)
	prog, err := parsedSource(cfg.source())
	if err != nil {
		return nil, nil, fmt.Errorf("snetray: %w", err)
	}
	res, err := compile.Program(prog, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("snetray: %w", err)
	}
	for _, ent := range res.Nets {
		return ent, sink, nil
	}
	return nil, nil, fmt.Errorf("snetray: no toplevel net compiled")
}

// Result is the outcome of a coordinated render.
type Result struct {
	Image   *raytrace.Image
	Cluster dist.Stats
	// Opt reports what the instantiation-time optimizer did to the
	// compiled network (core.OptStats; zero when Config.Optimize was
	// core.OptimizeOff).
	Opt core.OptStats
	// Recovered counts journal entries replayed into this render
	// (Config.Recover): 0 means a fresh render, 1 means a crashed
	// predecessor's input was replayed instead.
	Recovered int
	// DeadLetters are the records that exhausted Config.BoxRetry, with
	// DeadDropped counting any beyond the runtime's retention cap.
	DeadLetters []core.DeadLetter
	DeadDropped int
}

// Render compiles and runs the configured network on a cluster platform and
// returns the assembled image.
func Render(cfg Config) (*Result, error) {
	return RenderContext(context.Background(), cfg)
}

// RenderContext is Render with a lifetime: when ctx is cancelled before the
// render completes, the coordinated network is stopped — all of its
// goroutines are reclaimed and its queued box executions release their
// cluster CPU slots — and the context's error is returned. Use it to bound
// renders serving interactive requests.
func RenderContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Nodes <= 0 || cfg.CPUs <= 0 {
		return nil, fmt.Errorf("snetray: need positive Nodes and CPUs")
	}
	if cfg.Mode == Dynamic && (cfg.Tokens <= 0 || cfg.Tokens > cfg.Tasks) {
		return nil, fmt.Errorf("snetray: Dynamic mode needs 0 < Tokens <= Tasks")
	}
	ent, sink, err := cfg.build()
	if err != nil {
		return nil, err
	}
	var plat core.Platform
	if cfg.Platform != nil {
		plat = cfg.Platform
	} else {
		cluster := cfg.Cluster
		if cluster == nil {
			cluster = dist.NewCluster(cfg.Nodes, cfg.CPUs)
		}
		plat = cluster
	}
	opts := core.Options{Platform: plat, Placer: cfg.Placer, Optimize: cfg.Optimize,
		Durability: cfg.Durability, BoxRetry: cfg.BoxRetry}
	if cfg.Mode == DynamicSteal {
		opts.WorkStealing = true
		if opts.Placer == nil {
			opts.Placer = &core.LeastLoaded{}
		}
	}
	if cfg.Recover && cfg.Durability == nil {
		return nil, fmt.Errorf("snetray: Recover needs Durability")
	}
	net := core.NewNetwork(ent, opts)
	input := record.Build().
		F("scene", cfg.Scene).
		T("nodes", cfg.Nodes).
		T("tasks", cfg.Tasks).
		Rec()
	inst := net.Start()
	unwatch := context.AfterFunc(ctx, func() { inst.Stop() })
	defer unwatch()
	recovered := 0
	if cfg.Recover {
		n, err := inst.Recover(cfg.Durability.Dir)
		if err != nil {
			inst.Stop()
			return nil, fmt.Errorf("snetray: %w", err)
		}
		recovered = n
	}
	go func() {
		// A replayed input IS the render: re-sending the configured one
		// would run the image twice and confuse the merger's task count.
		if recovered == 0 {
			inst.Send(input)
		}
		inst.CloseIn()
	}()
	leaked := 0
	//lint:reason collection drain: the feeder closes In (or ctx cancellation stops the instance), so the cascade closes Out in finite time
	for range inst.Out {
		leaked++
	}
	err = inst.Close()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("snetray: %w", ctx.Err())
	}
	if err != nil {
		return nil, err
	}
	if leaked != 0 {
		return nil, fmt.Errorf("snetray: network leaked %d records past genImg", leaked)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.pics) != 1 {
		return nil, fmt.Errorf("snetray: genImg received %d pictures, want 1", len(sink.pics))
	}
	res := &Result{Image: sink.pics[0], Opt: net.OptStats(), Recovered: recovered}
	res.DeadLetters, res.DeadDropped = inst.DeadLetters()
	if s, ok := plat.(interface{ Stats() dist.Stats }); ok {
		res.Cluster = s.Stats()
	}
	return res, nil
}
