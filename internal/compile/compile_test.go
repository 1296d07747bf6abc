package compile

import (
	"strings"
	"sync"
	"testing"
	"time"

	"snet/internal/core"
	"snet/internal/lang"
	"snet/internal/record"
)

func TestCompileBoxNeedsRegistration(t *testing.T) {
	_, err := Source(`net n { box b ((a) -> (b)); } connect b;`, NewRegistry())
	if err == nil || !strings.Contains(err.Error(), "no registered implementation") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileUnknownName(t *testing.T) {
	_, err := Source(`net n connect mystery;`, NewRegistry())
	if err == nil || !strings.Contains(err.Error(), "unknown name") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileRegisteredButUndeclaredBox(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterBox("b", func(c *core.BoxCall) error { return nil })
	_, err := Source(`net n connect b;`, reg)
	if err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileForwardDeclNeedsNet(t *testing.T) {
	_, err := Source(`net main { net helper ((a) -> (b)); } connect helper;`, NewRegistry())
	if err == nil || !strings.Contains(err.Error(), "signature only") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileSimplePipeline(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterBox("inc", func(c *core.BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x").(int)+1))
		return nil
	})
	reg.RegisterBox("dbl", func(c *core.BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x").(int)*2))
		return nil
	})
	res, err := Source(`
		net pipe {
			box inc ((x) -> (x));
			box dbl ((x) -> (x));
		} connect inc .. dbl;
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := res.Net("pipe")
	if !ok {
		t.Fatal("net pipe not in result")
	}
	outs, err := core.NewNetwork(ent, core.Options{}).Run(record.New().SetField("x", 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outs = %v", outs)
	}
	if v, _ := outs[0].Field("x"); v != 42 {
		t.Fatalf("x = %v, want 42", v)
	}
}

func TestCompileFilterTagArithmetic(t *testing.T) {
	res, err := Source(`net f connect [ {<a>, <b>} -> {<c = a*10 + b>, <a>, <b>} ];`, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ent, _ := res.Net("f")
	outs, err := core.NewNetwork(ent, core.Options{}).Run(
		record.Build().T("a", 4).T("b", 2).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := outs[0].Tag("c"); v != 42 {
		t.Fatalf("c = %d, want 42", v)
	}
	// a and b explicitly copied
	if !outs[0].HasTag("a") || !outs[0].HasTag("b") {
		t.Fatalf("out = %s", outs[0])
	}
}

func TestCompileTagExprDivisionByZeroIsZero(t *testing.T) {
	res, err := Source(`net f connect [ {<a>} -> {<q = 10 / a>, <m = 10 % a>} ];`, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ent, _ := res.Net("f")
	outs, err := core.NewNetwork(ent, core.Options{}).Run(record.Build().T("a", 0).Rec())
	if err != nil {
		t.Fatal(err)
	}
	q, _ := outs[0].Tag("q")
	m, _ := outs[0].Tag("m")
	if q != 0 || m != 0 {
		t.Fatalf("q=%d m=%d, want 0 0", q, m)
	}
}

func TestCompileGuardComparisons(t *testing.T) {
	// star with guard <n> < 3: operand increments; exits once n >= 3 is
	// false... note the guard is the EXIT condition, so exit when n < 3
	// is true. Feed n=5: must loop down? No — operand increments. Use a
	// decrementing box to reach the exit.
	reg := NewRegistry()
	reg.RegisterBox("dec", func(c *core.BoxCall) error {
		c.Emit(record.New().SetTag("n", c.Tag("n")-1))
		return nil
	})
	res, err := Source(`
		net count {
			box dec ((<n>) -> (<n>));
		} connect dec*{<n> <= 0};
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ent, _ := res.Net("count")
	outs, err := core.NewNetwork(ent, core.Options{}).Run(record.Build().T("n", 5).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outs = %v", outs)
	}
	if v, _ := outs[0].Tag("n"); v != 0 {
		t.Fatalf("n = %d, want 0", v)
	}
}

func TestCompileSerialFlowWarning(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterBox("a", func(c *core.BoxCall) error { return nil })
	reg.RegisterBox("b", func(c *core.BoxCall) error { return nil })
	res, err := Source(`
		net w {
			box a ((x) -> (y));
			box b ((z) -> (w));
		} connect a .. b;
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("expected a type-flow warning for a..b")
	}
	if !strings.Contains(res.Warnings[0], "matches no input variant") {
		t.Fatalf("warning = %q", res.Warnings[0])
	}
}

func TestCompileDeadBranchWarning(t *testing.T) {
	// After a box producing (x), the [] branch of the choice can never
	// win dispatch: the (x)-consuming filter outscores it on every
	// record. The compiler must warn statically (and the optimizer
	// prunes it at instantiation).
	reg := NewRegistry()
	reg.RegisterBox("a", func(c *core.BoxCall) error { return nil })
	res, err := Source(`
		net w {
			box a ((x) -> (x));
		} connect a .. ([ {x} -> {x} ] | []);
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, w := range res.Warnings {
		if strings.Contains(w, "can never win dispatch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a dead-branch warning, got %q", res.Warnings)
	}
	ent, _ := res.Net("w")
	n := core.NewNetwork(ent, core.Options{})
	if st := n.OptStats(); st.BranchesPruned != 1 {
		t.Fatalf("OptStats = %+v, want one pruned branch", st)
	}
}

func TestCompileDetChoicePreservesOrder(t *testing.T) {
	// slow handles records tagged <slow>; fast handles the rest. Under
	// nondeterministic '|' the fast branch would overtake; under '||'
	// the output order must equal the input order.
	reg := NewRegistry()
	reg.RegisterBox("slow", func(c *core.BoxCall) error {
		time.Sleep(2 * time.Millisecond)
		c.Emit(record.New().SetField("x", c.Field("x")))
		return nil
	})
	reg.RegisterBox("fast", func(c *core.BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x")))
		return nil
	})
	res, err := Source(`
		net d {
			box slow ((x, <slow>) -> (x));
			box fast ((x) -> (x));
		} connect slow || fast;
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ent, _ := res.Net("d")
	var ins []*record.Record
	for i := 0; i < 12; i++ {
		r := record.New().SetField("x", i)
		if i%3 == 0 {
			r.SetTag("slow", 1)
		}
		ins = append(ins, r)
	}
	outs, err := core.NewNetwork(ent, core.Options{}).Run(ins...)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 12 {
		t.Fatalf("got %d outputs", len(outs))
	}
	for i, o := range outs {
		if v, _ := o.Field("x"); v != i {
			t.Fatalf("order violated at %d: %v", i, v)
		}
	}
}

func TestCompileExprStandalone(t *testing.T) {
	e, err := lang.ParseExpr("[ {<n>} -> {<n += 1>} ]")
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := Expr(e, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := core.NewNetwork(ent, core.Options{}).Run(record.Build().T("n", 1).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := outs[0].Tag("n"); v != 2 {
		t.Fatalf("n = %d", v)
	}
}

// TestCompileDeepestChain: the parser's nesting limit counts the operators of
// a flat chain, because an n-fold a..b..c is an AST n deep and everything that
// walks it recurses n deep. What the limit lets through must be safe to walk:
// a chain one short of it (the limit is 10 000; one operator more is a parse
// error) prints, compiles, and runs.
func TestCompileDeepestChain(t *testing.T) {
	const ops = 9_999
	e, err := lang.ParseExpr("[ {<n>} -> {<n+=1>} ]" + strings.Repeat("..[]", ops))
	if err != nil {
		t.Fatal(err)
	}
	if printed := e.String(); strings.Count(printed, "..") != ops {
		t.Fatalf("printed form has %d operators, want %d", strings.Count(printed, ".."), ops)
	}
	ent, _, err := Expr(e, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := core.NewNetwork(ent, core.Options{}).Run(record.Build().T("n", 0).Rec())
	if err != nil || len(outs) != 1 {
		t.Fatalf("outs=%v err=%v", outs, err)
	}
	if v, _ := outs[0].Tag("n"); v != 1 {
		t.Fatalf("n = %d, want 1", v)
	}
}

func TestCompileMinusEqAndUnaryMinus(t *testing.T) {
	res, err := Source(`net f connect [ {<n>} -> {<n -= 2>, <m = -3>} ];`, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ent, _ := res.Net("f")
	outs, err := core.NewNetwork(ent, core.Options{}).Run(record.Build().T("n", 10).Rec())
	if err != nil {
		t.Fatal(err)
	}
	n, _ := outs[0].Tag("n")
	m, _ := outs[0].Tag("m")
	if n != 8 || m != -3 {
		t.Fatalf("n=%d m=%d", n, m)
	}
}

// --- Full paper programs -------------------------------------------------

// sink collects records delivered to a terminal box and counts the
// merger's init firings, one per <fst>-tagged chunk.
type sink struct {
	mu    sync.Mutex
	pics  []map[int]string
	inits int

	// hold, when set, runs before solve renders a section.
	hold func(section)
}

func (s *sink) add(p map[int]string) {
	s.mu.Lock()
	s.pics = append(s.pics, p)
	s.mu.Unlock()
}

func (s *sink) initFired() {
	s.mu.Lock()
	s.inits++
	s.mu.Unlock()
}

func (s *sink) initCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inits
}

// registerRayBoxes registers toy implementations of the paper's boxes over
// a string "scene": splitter cuts the scene into sections, solver
// "renders" a section by uppercasing it, init/merge assemble a picture as
// an index-keyed map, genImg delivers the final picture to the sink.
//
// When tokens < tasks, splitter emits the first `tokens` sections with a
// <node> tag (values 0..tokens-1) and the remaining sections untagged — the
// input convention of the Fig. 4 dynamic solver segment. With tokens >=
// tasks every section is tagged round-robin (the static Fig. 2 setup).
func registerRayBoxes(reg *Registry, out *sink, tokens int) {
	reg.RegisterBox("splitter", func(c *core.BoxCall) error {
		scene := c.Field("scene").(string)
		nodes := c.Tag("nodes")
		tasks := c.Tag("tasks")
		if nodes <= 0 || tasks <= 0 {
			return nil
		}
		for i := 0; i < tasks; i++ {
			lo := i * len(scene) / tasks
			hi := (i + 1) * len(scene) / tasks
			r := record.Build().
				F("scene", scene).
				F("sect", section{Index: i, Lo: lo, Hi: hi}).
				T("tasks", tasks).
				Rec()
			if i == 0 {
				r.SetTag("fst", 1)
			}
			if tokens >= tasks {
				r.SetTag("node", i%nodes)
			} else if i < tokens {
				r.SetTag("node", i)
			}
			c.Emit(r)
		}
		return nil
	})
	solve := func(c *core.BoxCall) error {
		scene := c.Field("scene").(string)
		s := c.Field("sect").(section)
		if out.hold != nil {
			out.hold(s)
		}
		c.Emit(record.New().
			SetField("chunk", chunk{Index: s.Index, Data: strings.ToUpper(scene[s.Lo:s.Hi])}))
		return nil
	}
	reg.RegisterBox("solver", solve)
	reg.RegisterBox("solve", solve)
	reg.RegisterBox("init", func(c *core.BoxCall) error {
		ch := c.Field("chunk").(chunk)
		out.initFired()
		c.Emit(record.New().SetField("pic", map[int]string{ch.Index: ch.Data}))
		return nil
	})
	reg.RegisterBox("merge", func(c *core.BoxCall) error {
		ch := c.Field("chunk").(chunk)
		pic := c.Field("pic").(map[int]string)
		np := make(map[int]string, len(pic)+1)
		for k, v := range pic {
			np[k] = v
		}
		np[ch.Index] = ch.Data
		c.Emit(record.New().SetField("pic", np))
		return nil
	})
	reg.RegisterBox("genImg", func(c *core.BoxCall) error {
		out.add(c.Field("pic").(map[int]string))
		return nil
	})
}

type section struct{ Index, Lo, Hi int }

type chunk struct {
	Index int
	Data  string
}

// fig3MergerSrc is the paper's Fig. 3, verbatim.
const fig3MergerSrc = `
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

// fig2Src is the paper's Fig. 2, verbatim; the merger net resolves to the
// separately compiled Fig. 3 network.
const fig2Src = `
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

// dynDeclsSrc is the declaration block shared by both dynamic variants.
const dynDeclsSrc = `
    box splitter( (scene, <nodes>, <tasks>)
                  -> (scene, sect, <node>, <tasks>, <fst>)
                   | (scene, sect, <node>, <tasks> )
                   | (scene, sect, <tasks>, <fst>)
                   | (scene, sect, <tasks> ));
    box solve ( (scene, sect) -> (chunk));
    net merger ( (chunk, <fst>) -> (pic),
                 (chunk) -> (pic));
    box genImg ( (pic) -> ());
`

// fig4VerbatimSrc embeds the paper's Fig. 4 solver segment verbatim in the
// full network. REPRODUCTION FINDING (documented in docs/combinators.md,
// "Fig. 4 as written"): under faithful S-Net filter semantics, flow
// inheritance attaches the unmatched <fst> tag to BOTH outputs of
// [ {chunk,<node>} -> {chunk}; {<node>} ], so the recycled node token
// carries <fst>, the section it joins produces a second <fst>-tagged chunk,
// the merger's init box fires twice, and the picture never completes. The run terminates cleanly but genImg receives
// nothing. With one token that is certain: every section joins the <fst>
// token. With several it depends on the schedule: if the other tokens take
// every waiting section before the <fst> token comes back, the <fst> token
// joins none and the picture completes after all.
const fig4VerbatimSrc = `
net raytracing_dyn {` + dynDeclsSrc + `} connect
    splitter
    .. ( ( ( solve .. [ {chunk, <node>}
                        -> {chunk}; {<node>} ]
           )!@<node>
           | []
         )
         .. ( [] | [| {sect}, {<node>} |] )
       ) * {chunk}
    .. merger .. genImg
`

// fig4DynSrc is the corrected dynamic network: a choice of two filters
// routes <fst> explicitly with the chunk so the token leaves clean. The
// correction is expressed in plain S-Net, not by bending runtime semantics.
const fig4DynSrc = `
net raytracing_dyn {` + dynDeclsSrc + `} connect
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

func compileRaytracing(t *testing.T, src string, out *sink, tokens int) *core.Entity {
	t.Helper()
	reg := NewRegistry()
	registerRayBoxes(reg, out, tokens)
	mergerRes, err := Source(fig3MergerSrc, reg)
	if err != nil {
		t.Fatalf("Fig. 3 merger failed to compile: %v", err)
	}
	mergerNet, _ := mergerRes.Net("merger")
	reg.RegisterNet("merger", mergerNet)
	res, err := Source(src, reg)
	if err != nil {
		t.Fatalf("program failed to compile: %v", err)
	}
	for name, ent := range res.Nets {
		_ = name
		return ent
	}
	t.Fatal("no nets compiled")
	return nil
}

func checkScene(t *testing.T, out *sink, scene string, tasks int) {
	t.Helper()
	out.mu.Lock()
	defer out.mu.Unlock()
	if len(out.pics) != 1 {
		t.Fatalf("genImg received %d pictures, want 1", len(out.pics))
	}
	pic := out.pics[0]
	if len(pic) != tasks {
		t.Fatalf("picture has %d chunks, want %d (%v)", len(pic), tasks, pic)
	}
	var sb strings.Builder
	for i := 0; i < tasks; i++ {
		sb.WriteString(pic[i])
	}
	if got, want := sb.String(), strings.ToUpper(scene); got != want {
		t.Fatalf("assembled scene = %q, want %q", got, want)
	}
}

func TestFig2StaticNetworkEndToEnd(t *testing.T) {
	out := &sink{}
	const scene = "the quick brown fox jumps over the lazy dog"
	const tasks, nodes = 8, 4
	ent := compileRaytracing(t, fig2Src, out, tasks /* all tagged */)
	outs, err := core.NewNetwork(ent, core.Options{}).Run(
		record.Build().F("scene", scene).T("nodes", nodes).T("tasks", tasks).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("network emitted %d records, want 0 (genImg consumes)", len(outs))
	}
	checkScene(t, out, scene, tasks)
}

func TestFig4DynamicNetworkEndToEnd(t *testing.T) {
	out := &sink{}
	const scene = "pack my box with five dozen liquor jugs, judge my vow"
	const tasks, nodes, tokens = 12, 4, 5
	ent := compileRaytracing(t, fig4DynSrc, out, tokens)
	outs, err := core.NewNetwork(ent, core.Options{}).Run(
		record.Build().F("scene", scene).T("nodes", nodes).T("tasks", tasks).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("network emitted %d records, want 0", len(outs))
	}
	checkScene(t, out, scene, tasks)
}

func TestFig4DynamicTokenSweep(t *testing.T) {
	// The dynamic network must produce a complete picture for every
	// token count, including the degenerate tokens == tasks case the
	// paper identifies as "worst".
	const scene = "sphinx of black quartz judge my vow"
	const tasks, nodes = 8, 4
	for _, tokens := range []int{1, 2, 3, 4, 8} {
		out := &sink{}
		ent := compileRaytracing(t, fig4DynSrc, out, tokens)
		_, err := core.NewNetwork(ent, core.Options{}).Run(
			record.Build().F("scene", scene).T("nodes", nodes).T("tasks", tasks).Rec())
		if err != nil {
			t.Fatalf("tokens=%d: %v", tokens, err)
		}
		checkScene(t, out, scene, tasks)
	}
}

// TestFig4VerbatimTokenInheritsFst documents the reproduction finding: the
// verbatim Fig. 4 network terminates cleanly, but recycled tokens
// flow-inherit <fst> (see fig4VerbatimSrc), so the merger's init box fires
// once more for every section the <fst> token joins, and a picture completes
// only if it joins none.
func TestFig4VerbatimTokenInheritsFst(t *testing.T) {
	const scene = "abcdefghijklmnopqrstuvwx"
	const tasks, nodes = 8, 4
	run := func(t *testing.T, out *sink, tokens int) {
		t.Helper()
		ent := compileRaytracing(t, fig4VerbatimSrc, out, tokens)
		_, err := core.NewNetwork(ent, core.Options{}).Run(
			record.Build().F("scene", scene).T("nodes", nodes).T("tasks", tasks).Rec())
		if err != nil {
			t.Fatal(err)
		}
	}
	noPicture := func(t *testing.T, out *sink) {
		t.Helper()
		out.mu.Lock()
		defer out.mu.Unlock()
		if len(out.pics) != 0 {
			t.Fatalf("verbatim Fig. 4 completed %d picture(s) after %d init firings; "+
				"the <fst>-inheritance finding no longer reproduces", len(out.pics), out.inits)
		}
	}

	// One token: every later section joins the <fst> token, under every
	// schedule.
	t.Run("tokens=1", func(t *testing.T) {
		out := &sink{}
		run(t, out, 1)
		if got := out.initCount(); got != tasks {
			t.Fatalf("init fired %d times, want %d (every chunk <fst>-tagged)", got, tasks)
		}
		noPicture(t, out)
	})

	// Three tokens, any schedule: a picture completes exactly when init
	// fired once, that is when the other tokens took every waiting section
	// before the <fst> token came back.
	t.Run("tokens=3", func(t *testing.T) {
		out := &sink{}
		run(t, out, 3)
		switch inits := out.initCount(); {
		case inits == 1:
			checkScene(t, out, scene, tasks)
		case inits > 1:
			noPicture(t, out)
		default:
			t.Fatal("init never fired: the <fst> chunk did not reach the merger")
		}
	})

	// Three tokens, the other two held in solve until a second <fst>-tagged
	// chunk has reached the merger: the <fst> token is the only one free to
	// take a waiting section, so it does, and the picture never completes.
	t.Run("tokens=3/fst-first", func(t *testing.T) {
		const tokens = 3
		out := &sink{}
		out.hold = func(s section) {
			if s.Index == 0 || s.Index >= tokens {
				return
			}
			for deadline := time.Now().Add(10 * time.Second); out.initCount() < 2 &&
				time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		}
		run(t, out, tokens)
		if got := out.initCount(); got < 2 {
			t.Fatalf("init fired %d times, want >= 2: no second <fst>-tagged chunk", got)
		}
		noPicture(t, out)
	})
}

func TestFig2DescribeContainsPlacement(t *testing.T) {
	out := &sink{}
	ent := compileRaytracing(t, fig2Src, out, 8)
	d := ent.Describe()
	if !strings.Contains(d, "!@<node>") {
		t.Fatalf("Describe missing placement:\n%s", d)
	}
}

// TestCompileWindowedMergerOnExecutors: the Fig. 3 merger idiom folded per
// window under a split — the benchmark's windowed aggregation, written in
// S-Net — compiles to a split whose replicas run on executors (the idiom's
// operand is a stage tree feeding a chained star), and every window sums
// its readings.
func TestCompileWindowedMergerOnExecutors(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterBox("seed", func(c *core.BoxCall) error {
		c.Emit(record.New().SetField("acc", c.Field("val")))
		return nil
	})
	reg.RegisterBox("fold", func(c *core.BoxCall) error {
		c.Emit(record.New().SetField("acc", c.Field("acc").(int)+c.Field("val").(int)))
		return nil
	})
	res, err := Source(`
		net window {
			box seed ( (val, <fst>) -> (acc) );
			box fold ( (acc, val) -> (acc) );
		} connect
			( ( ( seed .. [ {} -> {<cnt=1>} ] ) | [] )
			  .. ( [| {acc}, {val} |]
			       .. ( ( fold .. [ {<cnt>} -> {<cnt+=1>} ] ) | [] )
			     ) * {<cnt> == <win>}
			) ! <slot>;
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ent, _ := res.Net("window")
	n := core.NewNetwork(ent, core.Options{})
	if st := n.OptStats(); st.SplitsOnExecutors != 1 || st.StarOperandsInlined != 1 {
		t.Fatalf("OptStats = %+v, want the split on executors over a chained star", st)
	}
	const slots, win = 6, 4
	var ins []*record.Record
	for i := 0; i < win; i++ {
		for s := 0; s < slots; s++ {
			r := record.New().SetField("val", 10*s+i).SetTag("slot", s).SetTag("win", win)
			if i == 0 {
				r.SetTag("fst", 1)
			}
			ins = append(ins, r)
		}
	}
	outs, err := n.Run(ins...)
	if err != nil || len(outs) != slots {
		t.Fatalf("outs=%v err=%v", outs, err)
	}
	for _, r := range outs {
		s, _ := r.Tag("slot")
		if acc, _ := r.Field("acc"); acc != 40*s+6 {
			t.Fatalf("slot %d summed to %v, want %d", s, acc, 40*s+6)
		}
	}
}
