package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// incBox returns a box {x} -> {x} that adds delta to the integer field x.
func incBox(name string, delta int) *Entity {
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	return NewBox(name, sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x").(int)+delta))
		return nil
	})
}

func runEntity(t *testing.T, e *Entity, inputs ...*record.Record) []*record.Record {
	t.Helper()
	outs, err := NewNetwork(e, Options{}).Run(inputs...)
	if err != nil {
		t.Fatalf("network error: %v", err)
	}
	return outs
}

func xVal(t *testing.T, r *record.Record) int {
	t.Helper()
	v, ok := r.Field("x")
	if !ok {
		t.Fatalf("record %s lacks field x", r)
	}
	return v.(int)
}

func TestBoxBasic(t *testing.T) {
	outs := runEntity(t, incBox("inc", 1), record.New().SetField("x", 41))
	if len(outs) != 1 || xVal(t, outs[0]) != 42 {
		t.Fatalf("outs = %v", outs)
	}
}

func TestBoxFlowInheritance(t *testing.T) {
	// Extra labels must ride along; consumed labels must not.
	sig := MustSig([]rtype.Label{rtype.F("a"), rtype.T("b")}, []rtype.Label{rtype.F("c")})
	box := NewBox("foo", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("c", 1))
		return nil
	})
	in := record.Build().F("a", 1).T("b", 2).F("extra", "e").T("etag", 7).Rec()
	outs := runEntity(t, box, in)
	if len(outs) != 1 {
		t.Fatalf("got %d outputs", len(outs))
	}
	o := outs[0]
	if !o.HasField("c") || !o.HasField("extra") || !o.HasTag("etag") {
		t.Fatalf("inheritance failed: %s", o)
	}
	if o.HasField("a") || o.HasTag("b") {
		t.Fatalf("consumed labels leaked: %s", o)
	}
}

func TestBoxOverrideOnInheritance(t *testing.T) {
	// A box emitting a label that would also inherit keeps its own value.
	sig := MustSig([]rtype.Label{rtype.F("a")}, []rtype.Label{rtype.F("keep")})
	box := NewBox("b", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("keep", "box"))
		return nil
	})
	in := record.Build().F("a", 1).F("keep", "input").Rec()
	outs := runEntity(t, box, in)
	if v, _ := outs[0].Field("keep"); v != "box" {
		t.Fatalf("override failed: %v", v)
	}
}

func TestBoxMultipleOutputs(t *testing.T) {
	sig := MustSig([]rtype.Label{rtype.T("n")}, []rtype.Label{rtype.T("i")})
	fan := NewBox("fan", sig, func(c *BoxCall) error {
		for i := 0; i < c.Tag("n"); i++ {
			c.Emit(record.New().SetTag("i", i))
		}
		return nil
	})
	outs := runEntity(t, fan, record.New().SetTag("n", 5))
	if len(outs) != 5 {
		t.Fatalf("got %d outputs, want 5", len(outs))
	}
}

func TestBoxTypeMismatchReported(t *testing.T) {
	net := NewNetwork(incBox("inc", 1), Options{})
	_, err := net.Run(record.New().SetField("y", 1))
	if err == nil || !strings.Contains(err.Error(), "does not match input type") {
		t.Fatalf("err = %v", err)
	}
}

func TestBoxErrorPropagates(t *testing.T) {
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	bad := NewBox("bad", sig, func(c *BoxCall) error {
		return fmt.Errorf("deliberate")
	})
	_, err := NewNetwork(bad, Options{}).Run(record.New().SetField("x", 1))
	if err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Fatalf("err = %v", err)
	}
}

func TestBoxPanicRecovered(t *testing.T) {
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	bad := NewBox("panicky", sig, func(c *BoxCall) error {
		panic("boom")
	})
	_, err := NewNetwork(bad, Options{}).Run(record.New().SetField("x", 1))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestBoxOutputTypeCheck(t *testing.T) {
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("y")})
	box := NewBox("wrongout", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("z", 1)) // violates declared output {y}
		return nil
	})
	_, err := NewNetwork(box, Options{CheckTypes: true}).Run(record.New().SetField("x", 1))
	if err == nil || !strings.Contains(err.Error(), "does not match output type") {
		t.Fatalf("err = %v", err)
	}
	// Without CheckTypes the same network runs silently.
	if _, err := NewNetwork(box, Options{}).Run(record.New().SetField("x", 1)); err != nil {
		t.Fatalf("unchecked err = %v", err)
	}
}

func TestSerialPipeline(t *testing.T) {
	e := SerialAll(incBox("a", 1), incBox("b", 10), incBox("c", 100))
	outs := runEntity(t, e, record.New().SetField("x", 0))
	if len(outs) != 1 || xVal(t, outs[0]) != 111 {
		t.Fatalf("outs = %v", outs)
	}
}

func TestSerialPreservesOrder(t *testing.T) {
	e := Serial(incBox("a", 1), incBox("b", 1))
	var ins []*record.Record
	for i := 0; i < 50; i++ {
		ins = append(ins, record.New().SetField("x", i*10))
	}
	outs := runEntity(t, e, ins...)
	if len(outs) != 50 {
		t.Fatalf("got %d outputs", len(outs))
	}
	for i, o := range outs {
		if xVal(t, o) != i*10+2 {
			t.Fatalf("order violated at %d: %v", i, o)
		}
	}
}

func TestChoiceRoutesBySpecificity(t *testing.T) {
	// Branch A handles {x,<special>}, branch B handles {x}. A record with
	// the tag must go to A even though it also matches B.
	sigA := MustSig([]rtype.Label{rtype.F("x"), rtype.T("special")}, []rtype.Label{rtype.F("via")})
	a := NewBox("a", sigA, func(c *BoxCall) error {
		c.Emit(record.New().SetField("via", "A"))
		return nil
	})
	sigB := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("via")})
	b := NewBox("b", sigB, func(c *BoxCall) error {
		c.Emit(record.New().SetField("via", "B"))
		return nil
	})
	e := Choice(a, b)
	outs := runEntity(t, e,
		record.Build().F("x", 1).T("special", 1).Rec(),
		record.Build().F("x", 2).Rec())
	if len(outs) != 2 {
		t.Fatalf("got %d outputs", len(outs))
	}
	seen := map[string]bool{}
	for _, o := range outs {
		v, _ := o.Field("via")
		seen[v.(string)] = true
	}
	if !seen["A"] || !seen["B"] {
		t.Fatalf("routing wrong: %v", seen)
	}
}

func TestChoiceNoMatchReported(t *testing.T) {
	e := Choice(incBox("a", 1), incBox("b", 2))
	_, err := NewNetwork(e, Options{}).Run(record.New().SetField("nope", 1))
	if err == nil || !strings.Contains(err.Error(), "matches no branch") {
		t.Fatalf("err = %v", err)
	}
}

func TestChoiceTieRoundRobin(t *testing.T) {
	// Two identical branches: ties must spread records across both.
	mk := func(tag string) *Entity {
		sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("via")})
		return NewBox(tag, sig, func(c *BoxCall) error {
			c.Emit(record.New().SetField("via", tag))
			return nil
		})
	}
	e := Choice(mk("L"), mk("R"))
	var ins []*record.Record
	for i := 0; i < 20; i++ {
		ins = append(ins, record.New().SetField("x", i))
	}
	outs, err := NewNetwork(e, Options{}).Run(ins...)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, o := range outs {
		v, _ := o.Field("via")
		count[v.(string)]++
	}
	if count["L"] != 10 || count["R"] != 10 {
		t.Fatalf("tie-break not round-robin: %v", count)
	}
}

func TestChoiceSingleBranchIsOperand(t *testing.T) {
	a := incBox("a", 1)
	if Choice(a) != a {
		t.Fatal("Choice of one branch should return the operand")
	}
}

func TestStarUnrolls(t *testing.T) {
	leakcheck.Check(t)
	// Operand increments <n>; exit when <n> carries value via guard n>=5.
	sig := MustSig([]rtype.Label{rtype.T("n")}, []rtype.Label{rtype.T("n")})
	inc := NewBox("incn", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetTag("n", c.Tag("n")+1))
		return nil
	})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(func(r *record.Record) bool {
		v, _ := r.Tag("n")
		return v >= 5
	}, "<n> >= 5")
	e := Star(inc, exit)
	outs := runEntity(t, e,
		record.New().SetTag("n", 0),
		record.New().SetTag("n", 3),
		record.New().SetTag("n", 7)) // matches exit immediately at first tap
	if len(outs) != 3 {
		t.Fatalf("got %d outputs", len(outs))
	}
	vals := map[int]int{}
	for _, o := range outs {
		v, _ := o.Tag("n")
		vals[v]++
	}
	if vals[5] != 2 || vals[7] != 1 {
		t.Fatalf("star results wrong: %v", vals)
	}
}

func TestStarExitPatternOnly(t *testing.T) {
	// Exit on presence of field done; operand turns {work} into {done}.
	sig := MustSig([]rtype.Label{rtype.F("work")}, []rtype.Label{rtype.F("done")})
	fin := NewBox("finish", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("done", c.Field("work")))
		return nil
	})
	e := Star(fin, rtype.NewPattern(rtype.NewVariant(rtype.F("done"))))
	outs := runEntity(t, e, record.New().SetField("work", 1), record.New().SetField("done", 99))
	if len(outs) != 2 {
		t.Fatalf("got %d outputs", len(outs))
	}
}

func TestSplitPerTagInstance(t *testing.T) {
	leakcheck.Check(t)
	// The box records which instance processed the record by echoing a
	// per-instance counter: instances are sequential, so per-tag ordering
	// is preserved.
	sig := MustSig([]rtype.Label{rtype.F("x"), rtype.T("k")}, []rtype.Label{rtype.F("x")})
	echo := NewBox("echo", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x")).SetTag("k", c.Tag("k")))
		return nil
	})
	e := Split(echo, "k")
	var ins []*record.Record
	for i := 0; i < 30; i++ {
		ins = append(ins, record.Build().F("x", i).T("k", i%3).Rec())
	}
	outs := runEntity(t, e, ins...)
	if len(outs) != 30 {
		t.Fatalf("got %d outputs", len(outs))
	}
	// per-tag subsequences must be in order
	last := map[int]int{0: -1, 1: -1, 2: -1}
	for _, o := range outs {
		k, _ := o.Tag("k")
		x, _ := o.Field("x")
		if x.(int) < last[k] {
			t.Fatalf("per-instance order violated for k=%d", k)
		}
		last[k] = x.(int)
	}
}

func TestSplitMissingTagReported(t *testing.T) {
	sig := MustSig([]rtype.Label{rtype.F("x"), rtype.T("k")}, []rtype.Label{rtype.F("x")})
	echo := NewBox("echo", sig, func(c *BoxCall) error { return nil })
	_, err := NewNetwork(Split(echo, "k"), Options{}).Run(record.New().SetField("x", 1))
	if err == nil || !strings.Contains(err.Error(), "lacks index tag") {
		t.Fatalf("err = %v", err)
	}
}

func TestSplitSignatureRequiresTag(t *testing.T) {
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	e := Split(NewBox("b", sig, func(c *BoxCall) error { return nil }), "k")
	if e.Signature().In.Accepts(record.New().SetField("x", 1)) {
		t.Fatal("split input type must require the index tag")
	}
	if !e.Signature().In.Accepts(record.Build().F("x", 1).T("k", 0).Rec()) {
		t.Fatal("split input type must accept records with the tag")
	}
}

// nodeTrackingPlatform records which node each execution ran on and one
// move per transferred record.
type nodeTrackingPlatform struct {
	LocalPlatform
	nodes     int
	execNodes chan int
	transfers chan [2]int
}

func (p *nodeTrackingPlatform) Nodes() int { return p.nodes }
func (p *nodeTrackingPlatform) ExecBox(node int, _ <-chan struct{}, _ string, _ *record.Record,
	_ bool, local func()) ([]*record.Record, bool, bool, error) {
	p.execNodes <- node
	local()
	return nil, false, true, nil
}
func (p *nodeTrackingPlatform) Transfer(from, to int, r *record.Record) {
	p.transfers <- [2]int{from, to}
}
func (p *nodeTrackingPlatform) TransferBatch(from, to int, rs []*record.Record) {
	for range rs {
		p.transfers <- [2]int{from, to}
	}
}

func TestAtPlacesExecution(t *testing.T) {
	p := &nodeTrackingPlatform{nodes: 4, execNodes: make(chan int, 16), transfers: make(chan [2]int, 16)}
	e := At(incBox("inc", 1), 2)
	outs, err := NewNetwork(e, Options{Platform: p}).Run(record.New().SetField("x", 1))
	if err != nil || len(outs) != 1 {
		t.Fatalf("outs=%v err=%v", outs, err)
	}
	close(p.execNodes)
	close(p.transfers)
	var nodes []int
	for n := range p.execNodes {
		nodes = append(nodes, n)
	}
	if len(nodes) != 1 || nodes[0] != 2 {
		t.Fatalf("exec nodes = %v, want [2]", nodes)
	}
	var moves [][2]int
	for m := range p.transfers {
		moves = append(moves, m)
	}
	// one transfer 0->2 on entry and one 2->0 on exit
	if len(moves) != 2 || moves[0] != [2]int{0, 2} || moves[1] != [2]int{2, 0} {
		t.Fatalf("transfers = %v", moves)
	}
}

func TestSplitAtPlacesByTagValue(t *testing.T) {
	p := &nodeTrackingPlatform{nodes: 4, execNodes: make(chan int, 64), transfers: make(chan [2]int, 64)}
	sig := MustSig([]rtype.Label{rtype.F("x"), rtype.T("node")}, []rtype.Label{rtype.F("x")})
	work := NewBox("w", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x")))
		return nil
	})
	e := SplitAt(work, "node")
	var ins []*record.Record
	for i := 0; i < 8; i++ {
		ins = append(ins, record.Build().F("x", i).T("node", i%4).Rec())
	}
	outs, err := NewNetwork(e, Options{Platform: p}).Run(ins...)
	if err != nil || len(outs) != 8 {
		t.Fatalf("outs=%d err=%v", len(outs), err)
	}
	close(p.execNodes)
	seen := map[int]int{}
	for n := range p.execNodes {
		seen[n]++
	}
	for n := 0; n < 4; n++ {
		if seen[n] != 2 {
			t.Fatalf("node %d executed %d boxes, want 2 (%v)", n, seen[n], seen)
		}
	}
}

func TestSplitAtNegativeTagWraps(t *testing.T) {
	p := &nodeTrackingPlatform{nodes: 4, execNodes: make(chan int, 16), transfers: make(chan [2]int, 64)}
	sig := MustSig([]rtype.Label{rtype.T("node")}, []rtype.Label{rtype.T("ok")})
	work := NewBox("w", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetTag("ok", 1))
		return nil
	})
	outs, err := NewNetwork(SplitAt(work, "node"), Options{Platform: p}).
		Run(record.New().SetTag("node", -1))
	if err != nil || len(outs) != 1 {
		t.Fatalf("outs=%v err=%v", outs, err)
	}
	close(p.execNodes)
	if n := <-p.execNodes; n != 3 {
		t.Fatalf("node for tag -1 = %d, want 3", n)
	}
}

func TestFilterAddTag(t *testing.T) {
	// [ {} -> {<cnt=1>} ] from Fig. 3.
	f := NewFilter("",
		FilterRule{
			Pattern: rtype.NewPattern(rtype.NewVariant()),
			Outputs: []FilterOutput{{SetTags: []TagAssign{{
				Name: "cnt", Expr: func(*record.Record) int { return 1 }, Src: "cnt=1",
			}}}},
		})
	outs := runEntity(t, f, record.Build().F("pic", "P").T("tasks", 9).Rec())
	o := outs[0]
	if v, _ := o.Tag("cnt"); v != 1 {
		t.Fatalf("cnt = %v", o)
	}
	if !o.HasField("pic") || !o.HasTag("tasks") {
		t.Fatalf("inheritance failed: %s", o)
	}
}

func TestFilterIncrementTag(t *testing.T) {
	// [ {<cnt>} -> {<cnt+=1>} ] from Fig. 3.
	f := NewFilter("",
		FilterRule{
			Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("cnt"))),
			Outputs: []FilterOutput{{SetTags: []TagAssign{{
				Name: "cnt",
				Expr: func(r *record.Record) int { v, _ := r.Tag("cnt"); return v + 1 },
				Src:  "cnt+=1",
			}}}},
		})
	outs := runEntity(t, f, record.Build().F("pic", "P").T("cnt", 3).Rec())
	if v, _ := outs[0].Tag("cnt"); v != 4 {
		t.Fatalf("cnt = %d, want 4", v)
	}
}

func TestFilterSplitsRecord(t *testing.T) {
	// [ {chunk, <node>} -> {chunk}; {<node>} ] from Fig. 4.
	f := NewFilter("",
		FilterRule{
			Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("chunk"), rtype.T("node"))),
			Outputs: []FilterOutput{
				{CopyFields: []string{"chunk"}},
				{CopyTags: []string{"node"}},
			},
		})
	outs := runEntity(t, f, record.Build().F("chunk", "C").T("node", 5).T("tasks", 8).Rec())
	if len(outs) != 2 {
		t.Fatalf("got %d outputs, want 2", len(outs))
	}
	var chunkRec, nodeRec *record.Record
	for _, o := range outs {
		if o.HasField("chunk") {
			chunkRec = o
		}
		if o.HasTag("node") {
			nodeRec = o
		}
	}
	if chunkRec == nil || nodeRec == nil {
		t.Fatalf("outputs = %v", outs)
	}
	if chunkRec.HasTag("node") {
		t.Fatal("chunk record must not carry <node>")
	}
	if nodeRec.HasField("chunk") {
		t.Fatal("node record must not carry chunk")
	}
	// flow inheritance attaches <tasks> to both
	if !chunkRec.HasTag("tasks") || !nodeRec.HasTag("tasks") {
		t.Fatal("flow inheritance missing on filter outputs")
	}
}

func TestFilterRename(t *testing.T) {
	f := NewFilter("",
		FilterRule{
			Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("old"))),
			Outputs: []FilterOutput{{RenameFields: []Rename{{From: "old", To: "new"}}}},
		})
	outs := runEntity(t, f, record.New().SetField("old", 7))
	if v, ok := outs[0].Field("new"); !ok || v != 7 {
		t.Fatalf("rename failed: %s", outs[0])
	}
	if outs[0].HasField("old") {
		t.Fatal("old label survived rename")
	}
}

func TestFilterNoMatchReported(t *testing.T) {
	f := NewFilter("",
		FilterRule{Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("a")))})
	_, err := NewNetwork(f, Options{}).Run(record.New().SetField("b", 1))
	if err == nil || !strings.Contains(err.Error(), "matches no filter rule") {
		t.Fatalf("err = %v", err)
	}
}

func TestIdentityPassesEverything(t *testing.T) {
	outs := runEntity(t, Identity(),
		record.New().SetField("a", 1),
		record.New().SetTag("t", 2))
	if len(outs) != 2 {
		t.Fatalf("got %d outputs", len(outs))
	}
}

func TestSyncJoins(t *testing.T) {
	s := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("pic"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("chunk"))),
	)
	outs := runEntity(t, s,
		record.Build().F("pic", "P").T("cnt", 1).Rec(),
		record.Build().F("chunk", "C").Rec())
	if len(outs) != 1 {
		t.Fatalf("got %d outputs, want 1 merged", len(outs))
	}
	o := outs[0]
	if !o.HasField("pic") || !o.HasField("chunk") || !o.HasTag("cnt") {
		t.Fatalf("merged record wrong: %s", o)
	}
}

func TestSyncEarlierPatternPriority(t *testing.T) {
	s := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("a"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("b"))),
	)
	outs := runEntity(t, s,
		record.Build().F("b", "B").F("shared", "fromB").Rec(),
		record.Build().F("a", "A").F("shared", "fromA").Rec())
	if len(outs) != 1 {
		t.Fatalf("got %d outputs", len(outs))
	}
	// pattern 1 ({a}) has priority on overlap even though {b} arrived first
	if v, _ := outs[0].Field("shared"); v != "fromA" {
		t.Fatalf("priority wrong: %v", v)
	}
}

func TestSyncPassThroughAfterFiring(t *testing.T) {
	s := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("a"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("b"))),
	)
	outs := runEntity(t, s,
		record.New().SetField("a", 1),
		record.New().SetField("b", 2),
		record.New().SetField("b", 3), // after firing: passes through
		record.New().SetField("a", 4)) // after firing: passes through
	if len(outs) != 3 {
		t.Fatalf("got %d outputs, want merged + 2 pass-through", len(outs))
	}
}

func TestSyncSecondMatchPassesThroughBeforeFiring(t *testing.T) {
	s := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("a"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("b"))),
	)
	// two {a} records: the second must pass through (pattern already filled)
	outs := runEntity(t, s,
		record.New().SetField("a", 1),
		record.New().SetField("a", 2),
		record.New().SetField("b", 3))
	if len(outs) != 2 {
		t.Fatalf("got %d outputs, want pass-through + merged", len(outs))
	}
}

func TestSyncDropsPartialOnClose(t *testing.T) {
	s := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("a"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("b"))),
	)
	outs := runEntity(t, s, record.New().SetField("a", 1))
	if len(outs) != 0 {
		t.Fatalf("partial contents must be discarded at close: %v", outs)
	}
}

func TestSyncNeedsTwoPatterns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSync with one pattern did not panic")
		}
	}()
	NewSync(rtype.NewPattern(rtype.NewVariant(rtype.F("a"))))
}

func TestDescribeTree(t *testing.T) {
	e := Serial(incBox("a", 1), Choice(incBox("b", 1), Identity()))
	d := e.Describe()
	for _, want := range []string{"(a..(b|[]))", "a  ::", "[]  ::"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}

// TestMergerNetworkFig3 reproduces the paper's Fig. 3 merger network,
// built programmatically: ((init .. [{}->{<cnt=1>}]) | []) followed by a
// star over ([|{pic},{chunk}|] .. ((merge .. [{<cnt>}->{<cnt+=1>}]) | []))
// with exit {<tasks> == <cnt>}.
func TestMergerNetworkFig3(t *testing.T) {
	mergerNet := buildFig3Merger()
	// Feed 6 chunks, the first tagged <fst>; all carry <tasks>=6.
	var ins []*record.Record
	for i := 0; i < 6; i++ {
		r := record.Build().F("chunk", fmt.Sprintf("c%d", i)).T("tasks", 6).Rec()
		if i == 0 {
			r.SetTag("fst", 1)
		}
		ins = append(ins, r)
	}
	outs, err := NewNetwork(mergerNet, Options{}).Run(ins...)
	if err != nil {
		t.Fatalf("merger error: %v", err)
	}
	if len(outs) != 1 {
		t.Fatalf("merger produced %d records, want exactly 1 picture", len(outs))
	}
	o := outs[0]
	pic, ok := o.Field("pic")
	if !ok {
		t.Fatalf("output lacks pic: %s", o)
	}
	// Our merge box concatenates chunk ids; all six must be present.
	got := pic.(string)
	for i := 0; i < 6; i++ {
		if !strings.Contains(got, fmt.Sprintf("c%d", i)) {
			t.Fatalf("chunk c%d missing from assembled pic %q", i, got)
		}
	}
	if v, _ := o.Tag("cnt"); v != 6 {
		t.Fatalf("cnt = %d, want 6", v)
	}
}

// buildFig3Merger assembles the Fig. 3 merger with string-typed chunks.
func buildFig3Merger() *Entity {
	initSig := MustSig(
		[]rtype.Label{rtype.F("chunk"), rtype.T("fst")},
		[]rtype.Label{rtype.F("pic")})
	initBox := NewBox("init", initSig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("pic", c.Field("chunk").(string)))
		return nil
	})
	cntInit := NewFilter("",
		FilterRule{
			Pattern: rtype.NewPattern(rtype.NewVariant()),
			Outputs: []FilterOutput{{SetTags: []TagAssign{{
				Name: "cnt", Expr: func(*record.Record) int { return 1 }, Src: "cnt=1",
			}}}},
		})
	mergeSig := MustSig(
		[]rtype.Label{rtype.F("chunk"), rtype.F("pic")},
		[]rtype.Label{rtype.F("pic")})
	mergeBox := NewBox("merge", mergeSig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("pic",
			c.Field("pic").(string)+"+"+c.Field("chunk").(string)))
		return nil
	})
	cntInc := NewFilter("",
		FilterRule{
			Pattern: rtype.NewPattern(rtype.NewVariant(rtype.T("cnt"))),
			Outputs: []FilterOutput{{SetTags: []TagAssign{{
				Name: "cnt",
				Expr: func(r *record.Record) int { v, _ := r.Tag("cnt"); return v + 1 },
				Src:  "cnt+=1",
			}}}},
		})
	sync := NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("pic"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("chunk"))),
	)
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("tasks"), rtype.T("cnt"))).
		WithGuard(func(r *record.Record) bool {
			a, _ := r.Tag("tasks")
			b, _ := r.Tag("cnt")
			return a == b
		}, "<tasks> == <cnt>")
	return Serial(
		Choice(Serial(initBox, cntInit), Identity()),
		Star(Serial(sync, Choice(Serial(mergeBox, cntInc), Identity())), exit),
	)
}

func TestMergerFig3SingleTask(t *testing.T) {
	outs, err := NewNetwork(buildFig3Merger(), Options{}).Run(
		record.Build().F("chunk", "only").T("tasks", 1).T("fst", 1).Rec())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || !outs[0].HasField("pic") {
		t.Fatalf("outs = %v", outs)
	}
}

func TestMergerFig3ManyTasksStress(t *testing.T) {
	leakcheck.Check(t)
	const n = 64
	var ins []*record.Record
	for i := 0; i < n; i++ {
		r := record.Build().F("chunk", fmt.Sprintf("c%d", i)).T("tasks", n).Rec()
		if i == 0 {
			r.SetTag("fst", 1)
		}
		ins = append(ins, r)
	}
	outs, err := NewNetwork(buildFig3Merger(), Options{BufferSize: 4}).Run(ins...)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outputs, want 1", len(outs))
	}
}

func TestErrorInsideStarDoesNotHang(t *testing.T) {
	// A box failing on some records inside a star must surface errors and
	// still terminate the run (failed records are dropped).
	sig := MustSig([]rtype.Label{rtype.T("n")}, []rtype.Label{rtype.T("n")})
	flaky := NewBox("flaky", sig, func(c *BoxCall) error {
		n := c.Tag("n")
		if n == 3 {
			return fmt.Errorf("injected failure at n=%d", n)
		}
		c.Emit(record.New().SetTag("n", n+1))
		return nil
	})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(func(r *record.Record) bool {
		v, _ := r.Tag("n")
		return v >= 5
	}, "<n> >= 5")
	done := make(chan struct{})
	var outs []*record.Record
	var err error
	go func() {
		outs, err = NewNetwork(Star(flaky, exit), Options{}).Run(
			record.New().SetTag("n", 0), // dies at n=3
			record.New().SetTag("n", 4)) // completes
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("network hung after box error")
	}
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v", err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outputs, want 1 survivor", len(outs))
	}
}

func TestErrorInsideSplitDoesNotHang(t *testing.T) {
	sig := MustSig([]rtype.Label{rtype.T("k")}, []rtype.Label{rtype.T("ok")})
	flaky := NewBox("flaky", sig, func(c *BoxCall) error {
		if c.Tag("k") == 1 {
			return fmt.Errorf("instance failure")
		}
		c.Emit(record.New().SetTag("ok", c.Tag("k")))
		return nil
	})
	outs, err := NewNetwork(Split(flaky, "k"), Options{}).Run(
		record.New().SetTag("k", 0),
		record.New().SetTag("k", 1),
		record.New().SetTag("k", 2))
	if err == nil || !strings.Contains(err.Error(), "instance failure") {
		t.Fatalf("err = %v", err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outputs, want 2", len(outs))
	}
}

func TestTinyBuffersNoDeadlock(t *testing.T) {
	leakcheck.Check(t)
	// Fully synchronous channels across a deep composition: the acyclic
	// dataflow must still drain.
	e := SerialAll(
		Choice(incBox("a", 1), Identity()),
		Star(incBox("s", 1), rtype.NewPattern(rtype.NewVariant(rtype.F("x"))).WithGuard(
			func(r *record.Record) bool {
				v, _ := r.Field("x")
				iv, _ := v.(int)
				return iv >= 3
			}, "x >= 3")),
		incBox("z", 100),
	)
	var ins []*record.Record
	for i := 0; i < 40; i++ {
		ins = append(ins, record.New().SetField("x", i%4))
	}
	done := make(chan struct{})
	var outs []*record.Record
	var err error
	go func() {
		outs, err = NewNetwork(e, Options{BufferSize: -1}).Run(ins...)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock with synchronous channels")
	}
	if err != nil || len(outs) != 40 {
		t.Fatalf("outs=%d err=%v", len(outs), err)
	}
}
