// Microbenchmarks and allocation-regression tests for the interned-label
// record representation. The Benchmark* functions track the ns/op and
// allocs/op of the coordination hot path's primitives; the *ZeroAlloc tests
// pin the contract the runtime relies on — matching and flow inheritance
// allocate nothing, and pooled records recycle allocation-free.
package record_test

import (
	"testing"

	"runtime/debug"

	"snet/internal/dist"
	"snet/internal/record"
	"snet/internal/rtype"
)

// benchSyms is the label vocabulary used throughout, interned once.
var (
	bScene = record.Intern("scene")
	bSect  = record.Intern("sect")
	bChunk = record.Intern("chunk")
	bNode  = record.Intern("node")
	bTasks = record.Intern("tasks")
	bFst   = record.Intern("fst")
)

// typicalRecord mirrors the paper's splitter output: two fields, two or
// three tags — within the record's inline entry capacity.
func typicalRecord() *record.Record {
	return record.New().
		SetFieldSym(bScene, "scene-payload").
		SetFieldSym(bSect, 7).
		SetTagSym(bNode, 3).
		SetTagSym(bTasks, 48).
		SetTagSym(bFst, 1)
}

func solverType() *rtype.Type {
	return rtype.NewType(
		rtype.NewVariant(rtype.F("chunk"), rtype.T("fst")),
		rtype.NewVariant(rtype.F("scene"), rtype.F("sect")),
	)
}

func BenchmarkSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := record.New().
			SetFieldSym(bScene, "s").
			SetFieldSym(bSect, i).
			SetTagSym(bNode, i).
			SetTagSym(bTasks, 48)
		_ = r
	}
}

// BenchmarkSetPooled is BenchmarkSet on a recycled record: the steady-state
// cost of building a message when the pipeline reuses its records.
func BenchmarkSetPooled(b *testing.B) {
	pool := record.NewPool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := pool.Get().
			SetFieldSym(bScene, "s").
			SetFieldSym(bSect, i).
			SetTagSym(bNode, i).
			SetTagSym(bTasks, 48)
		pool.Put(r)
	}
}

func BenchmarkMatch(b *testing.B) {
	t := solverType()
	r := typicalRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v, s := t.BestMatch(r); s < 0 || v == nil {
			b.Fatal("no match")
		}
	}
}

func BenchmarkCopy(b *testing.B) {
	r := typicalRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Copy()
	}
}

func BenchmarkInherit(b *testing.B) {
	src := typicalRecord()
	consumedF := []record.Sym{bScene, bSect}
	consumedT := []record.Sym{}
	dst := record.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		dst.SetFieldSym(bChunk, "chunk")
		dst.InheritFromExcept(src, consumedF, consumedT)
	}
}

func BenchmarkMerge(b *testing.B) {
	a := record.New().SetFieldSym(bChunk, "c").SetTagSym(bFst, 1)
	c := record.New().SetFieldSym(bScene, "s").SetTagSym(bTasks, 48)
	dst := record.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		dst.Merge(a).Merge(c)
	}
}

func BenchmarkShapeHash(b *testing.B) {
	r := typicalRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SetTagSym(bNode, i) // value update: shape cache stays valid
		_ = r.ShapeHash()
	}
}

// BenchmarkMarshal measures a link's first message: every label defined
// inline, by name.
func BenchmarkMarshal(b *testing.B) {
	r := typicalRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dist.NewCodec().Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalNegotiated measures the link codec in steady state,
// after the label table has been negotiated.
func BenchmarkMarshalNegotiated(b *testing.B) {
	r := typicalRecord()
	c := dist.NewCodec()
	if _, err := c.Marshal(r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizeNegotiated measures the transfer-accounting path: sizing a
// record against an already negotiated link table, as Cluster.Transfer
// does per hop.
func BenchmarkSizeNegotiated(b *testing.B) {
	r := typicalRecord()
	c := dist.NewCodec()
	c.Account(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Account(r)
	}
}

// --- allocation-regression tests -----------------------------------------

// TestMatchZeroAlloc pins the tentpole contract: record matching — the
// per-record acceptance test of every box, branch and pattern — allocates
// nothing.
func TestMatchZeroAlloc(t *testing.T) {
	skipIfRace(t)
	ty := solverType()
	r := typicalRecord()
	n := testing.AllocsPerRun(1000, func() {
		if _, s := ty.BestMatch(r); s < 0 {
			t.Fatal("no match")
		}
		if !ty.Accepts(r) {
			t.Fatal("not accepted")
		}
	})
	if n != 0 {
		t.Fatalf("match allocated %.1f objects per run, want 0", n)
	}
}

// TestInheritZeroAlloc pins flow inheritance on a recycled record: once a
// record's entry storage has warmed up, inheriting (with consumed sets, as
// every box emission does) allocates nothing.
func TestInheritZeroAlloc(t *testing.T) {
	skipIfRace(t)
	src := typicalRecord()
	consumedF := []record.Sym{bScene, bSect}
	var consumedT []record.Sym
	dst := record.New()
	n := testing.AllocsPerRun(1000, func() {
		dst.Reset()
		dst.SetFieldSym(bChunk, "chunk")
		dst.InheritFromExcept(src, consumedF, consumedT)
	})
	if n != 0 {
		t.Fatalf("inherit allocated %.1f objects per run, want 0", n)
	}
	if !dst.HasTagSym(bTasks) || dst.HasFieldSym(bScene) {
		t.Fatalf("inherit result wrong: %s", dst)
	}
}

// TestPoolZeroAlloc pins the pooling contract: a Get/populate/Put cycle on
// a warmed pool allocates nothing. A GC cycle would legitimately drain the
// sync.Pool mid-measurement, so collection is paused for the assertion.
func TestPoolZeroAlloc(t *testing.T) {
	skipIfRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pool := record.NewPool()
	pool.Put(pool.Get())
	n := testing.AllocsPerRun(1000, func() {
		r := pool.Get()
		r.SetTagSym(bNode, 1).SetFieldSym(bChunk, "c")
		pool.Put(r)
	})
	if n != 0 {
		t.Fatalf("pooled round trip allocated %.1f objects per run, want 0", n)
	}
}

// TestCopyIsSingleAlloc documents the copy cost: one heap object for a
// record within its inline entry capacity.
func TestCopyIsSingleAlloc(t *testing.T) {
	skipIfRace(t)
	r := typicalRecord()
	n := testing.AllocsPerRun(1000, func() {
		_ = r.Copy()
	})
	if n != 1 {
		t.Fatalf("copy allocated %.1f objects per run, want 1", n)
	}
}
