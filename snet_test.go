package snet_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"snet"
)

func incBox() *snet.Entity {
	return snet.NewBox("inc",
		snet.MustSig([]snet.Label{snet.F("x")}, []snet.Label{snet.F("x")}),
		func(c *snet.BoxCall) error {
			c.Emit(snet.NewRecord().SetField("x", c.Field("x").(int)+1))
			return nil
		})
}

func TestFacadeProgrammaticNetwork(t *testing.T) {
	net := snet.NewNetwork(snet.Serial(incBox(), incBox()), snet.Options{})
	outs, err := net.Run(snet.NewRecord().SetField("x", 40))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outs = %v", outs)
	}
	if v, _ := outs[0].Field("x"); v != 42 {
		t.Fatalf("x = %v", v)
	}
}

func TestFacadeCompiledNetwork(t *testing.T) {
	reg := snet.NewRegistry()
	reg.RegisterBox("inc", func(c *snet.BoxCall) error {
		c.Emit(snet.NewRecord().SetField("x", c.Field("x").(int)+1))
		return nil
	})
	res, err := snet.CompileSource(`
		net twice { box inc ((x) -> (x)); } connect inc .. inc;
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := res.Net("twice")
	if !ok {
		t.Fatal("net twice missing")
	}
	outs, err := snet.NewNetwork(ent, snet.Options{}).Run(
		snet.BuildRecord().F("x", 1).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := outs[0].Field("x"); v != 3 {
		t.Fatalf("x = %v", v)
	}
}

func TestFacadeParseAndCompileExpr(t *testing.T) {
	e, err := snet.ParseExpr("[ {<n>} -> {<n += 5>} ]")
	if err != nil {
		t.Fatal(err)
	}
	ent, warns, err := snet.CompileExpr(e, snet.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("warnings = %v", warns)
	}
	outs, err := snet.NewNetwork(ent, snet.Options{}).Run(
		snet.BuildRecord().T("n", 1).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := outs[0].Tag("n"); v != 6 {
		t.Fatalf("n = %v", v)
	}
}

func TestFacadeClusterPlatform(t *testing.T) {
	cluster := snet.NewCluster(3, 1)
	work := snet.NewBox("work",
		snet.MustSig([]snet.Label{snet.T("node")}, []snet.Label{snet.T("done")}),
		func(c *snet.BoxCall) error {
			c.Emit(snet.NewRecord().SetTag("done", c.Node()))
			return nil
		})
	net := snet.NewNetwork(snet.SplitAt(work, "node"), snet.Options{Platform: cluster})
	var ins []*snet.Record
	for i := 0; i < 6; i++ {
		ins = append(ins, snet.NewRecord().SetTag("node", i%3))
	}
	outs, err := net.Run(ins...)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []int
	for _, o := range outs {
		n, _ := o.Tag("done")
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	want := []int{0, 0, 1, 1, 2, 2}
	for i, n := range nodes {
		if n != want[i] {
			t.Fatalf("nodes = %v", nodes)
		}
	}
}

func TestFacadeTypeHelpers(t *testing.T) {
	sig := snet.NewSignature(
		snet.NewType(snet.NewVariant(snet.F("a"), snet.T("b"), snet.BT("c"))),
		snet.NewType(snet.NewVariant(snet.F("d"))),
	)
	if !strings.Contains(sig.String(), "<b>") || !strings.Contains(sig.String(), "<#c>") {
		t.Fatalf("sig = %s", sig)
	}
	p := snet.NewPattern(snet.NewVariant(snet.F("chunk")))
	if !p.Matches(snet.NewRecord().SetField("chunk", 1).SetField("extra", 2)) {
		t.Fatal("pattern match failed")
	}
}

// ExampleNetwork_quickstart builds, compiles and runs the smallest useful
// S-Net program.
func Example() {
	reg := snet.NewRegistry()
	reg.RegisterBox("double", func(c *snet.BoxCall) error {
		c.Emit(snet.NewRecord().SetField("x", c.Field("x").(int)*2))
		return nil
	})
	res, err := snet.CompileSource(`
		net quad { box double ((x) -> (x)); } connect double .. double;
	`, reg)
	if err != nil {
		panic(err)
	}
	ent, _ := res.Net("quad")
	outs, err := snet.NewNetwork(ent, snet.Options{}).Run(
		snet.NewRecord().SetField("x", 10))
	if err != nil {
		panic(err)
	}
	v, _ := outs[0].Field("x")
	fmt.Println(v)
	// Output: 40
}

// ExampleStar shows serial replication with a guard-carrying exit pattern.
func ExampleStar() {
	count := snet.NewBox("count",
		snet.MustSig([]snet.Label{snet.T("n")}, []snet.Label{snet.T("n")}),
		func(c *snet.BoxCall) error {
			c.Emit(snet.NewRecord().SetTag("n", c.Tag("n")+1))
			return nil
		})
	pat := snet.NewPattern(snet.NewVariant(snet.T("n"))).WithGuard(func(r *snet.Record) bool {
		v, _ := r.Tag("n")
		return v >= 3
	}, "<n> >= 3")
	outs, err := snet.NewNetwork(snet.Star(count, pat), snet.Options{}).Run(
		snet.NewRecord().SetTag("n", 0))
	if err != nil {
		panic(err)
	}
	n, _ := outs[0].Tag("n")
	fmt.Println(n)
	// Output: 3
}

func TestFacadeObserve(t *testing.T) {
	var c snet.ObserverCounter
	obs := snet.Observe(incBox(), c.Observe)
	outs, err := snet.NewNetwork(obs, snet.Options{}).Run(
		snet.NewRecord().SetField("x", 1),
		snet.NewRecord().SetField("x", 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || c.In() != 2 || c.Out() != 2 {
		t.Fatalf("outs=%d in=%d out=%d", len(outs), c.In(), c.Out())
	}
}

func TestFacadeDetCombinatorsFromSource(t *testing.T) {
	reg := snet.NewRegistry()
	reg.RegisterBox("slow", func(c *snet.BoxCall) error {
		time.Sleep(time.Millisecond)
		c.Emit(snet.NewRecord().SetField("x", c.Field("x")))
		return nil
	})
	reg.RegisterBox("fast", func(c *snet.BoxCall) error {
		c.Emit(snet.NewRecord().SetField("x", c.Field("x")))
		return nil
	})
	res, err := snet.CompileSource(`
		net ordered {
			box slow ((x, <s>) -> (x));
			box fast ((x) -> (x));
		} connect (slow || fast) .. [] ;
	`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ent, _ := res.Net("ordered")
	var ins []*snet.Record
	for i := 0; i < 10; i++ {
		r := snet.NewRecord().SetField("x", i)
		if i%2 == 0 {
			r.SetTag("s", 1)
		}
		ins = append(ins, r)
	}
	outs, err := snet.NewNetwork(ent, snet.Options{}).Run(ins...)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if v, _ := o.Field("x"); v != i {
			t.Fatalf("order violated at %d: %v", i, v)
		}
	}
}

func TestFacadeDetSplitProgrammatic(t *testing.T) {
	work := snet.NewBox("work",
		snet.MustSig([]snet.Label{snet.F("x"), snet.T("k")}, []snet.Label{snet.F("x")}),
		func(c *snet.BoxCall) error {
			if c.Tag("k") == 0 {
				time.Sleep(time.Millisecond)
			}
			c.Emit(snet.NewRecord().SetField("x", c.Field("x")))
			return nil
		})
	var ins []*snet.Record
	for i := 0; i < 12; i++ {
		ins = append(ins, snet.BuildRecord().F("x", i).T("k", i%3).Rec())
	}
	outs, err := snet.NewNetwork(snet.DetSplit(work, "k"), snet.Options{}).Run(ins...)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if v, _ := o.Field("x"); v != i {
			t.Fatalf("order violated at %d: %v", i, v)
		}
	}
}

func TestFacadeRemainingSurface(t *testing.T) {
	// Programmatic construction of every combinator and helper the facade
	// exports, composed into one runnable network.
	even := snet.NewFilter("evens",
		snet.FilterRule{
			Pattern: snet.NewPattern(snet.NewVariant(snet.T("n"))),
			Outputs: []snet.FilterOutput{{
				CopyTags: []string{"n"},
				SetTags: []snet.TagAssign{{
					Name: "half",
					Expr: func(r *snet.Record) int { v, _ := r.Tag("n"); return v / 2 },
					Src:  "half=n/2",
				}},
			}},
		})
	net := snet.NewNetwork(snet.SerialAll(even, snet.Identity(), snet.At(incBox2(), 0)), snet.Options{})
	outs, err := net.Run(snet.BuildRecord().T("n", 8).F("x", 1).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := outs[0].Tag("half"); v != 4 {
		t.Fatalf("half = %d", v)
	}

	// Sync + Choice + Star through the facade.
	sync := snet.NewSync(
		snet.NewPattern(snet.NewVariant(snet.F("a"))),
		snet.NewPattern(snet.NewVariant(snet.F("b"))),
	)
	outs, err = snet.NewNetwork(sync, snet.Options{}).Run(
		snet.NewRecord().SetField("a", 1),
		snet.NewRecord().SetField("b", 2))
	if err != nil || len(outs) != 1 {
		t.Fatalf("sync outs=%v err=%v", outs, err)
	}

	exit := snet.NewPattern(snet.NewVariant(snet.T("n"))).WithGuard(func(r *snet.Record) bool {
		v, _ := r.Tag("n")
		return v >= 2
	}, "<n> >= 2")
	bump := snet.NewBox("bump",
		snet.MustSig([]snet.Label{snet.T("n")}, []snet.Label{snet.T("n")}),
		func(c *snet.BoxCall) error {
			c.Emit(snet.NewRecord().SetTag("n", c.Tag("n")+1))
			return nil
		})
	outs, err = snet.NewNetwork(snet.Star(bump, exit), snet.Options{}).Run(snet.NewRecord().SetTag("n", 0))
	if err != nil || len(outs) != 1 {
		t.Fatalf("star outs=%v err=%v", outs, err)
	}

	choice := snet.Choice(bump, snet.Identity())
	if choice.Name() == "" || choice.Signature().String() == "" || choice.Describe() == "" {
		t.Fatal("entity accessors empty")
	}

	// Parse + CompileProgram path and Split.
	prog, err := snet.Parse(`net idnet connect [];`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := snet.CompileProgram(prog, snet.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Net("idnet"); !ok {
		t.Fatal("idnet missing")
	}
	split := snet.Split(bump, "k")
	outs, err = snet.NewNetwork(split, snet.Options{}).Run(
		snet.BuildRecord().T("n", 0).T("k", 3).Rec())
	if err != nil || len(outs) != 1 {
		t.Fatalf("split outs=%v err=%v", outs, err)
	}

	// Instance-level streaming API.
	inst := snet.NewNetwork(snet.DetChoice(bump, snet.Identity()), snet.Options{}).Start()
	inst.In <- snet.NewRecord().SetTag("n", 1)
	close(inst.In)
	n := 0
	for range inst.Out {
		n++
	}
	if n != 1 || inst.Err() != nil {
		t.Fatalf("instance n=%d err=%v", n, inst.Err())
	}
}

func incBox2() *snet.Entity {
	return snet.NewBox("inc2",
		snet.MustSig([]snet.Label{snet.F("x")}, []snet.Label{snet.F("x")}),
		func(c *snet.BoxCall) error {
			if !c.HasField("x") || c.HasTag("nope") {
				return fmt.Errorf("accessor confusion")
			}
			c.Emit(snet.NewRecord().SetField("x", c.Field("x").(int)+1))
			return nil
		})
}
