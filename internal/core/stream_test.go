package core

// Batch-boundary edge cases of the stream transport threaded through the
// runtime: single-record batches through every combinator, Stop with
// records parked in partial batches, determinism across batch boundaries,
// and the LinkStats surface.

import (
	"testing"
	"time"

	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// combinatorShapes builds one instance of every combinator (and the two
// stateful entities) over simple {x}->{x} boxes, paired with the number of
// outputs expected for a single {x} input record.
func combinatorShapes() map[string]struct {
	e    *Entity
	outs int
} {
	exit := rtype.NewPattern(rtype.NewVariant(rtype.F("x"))).WithGuard(
		func(r *record.Record) bool {
			v, _ := r.Field("x")
			iv, _ := v.(int)
			return iv >= 2
		}, "x >= 2")
	xy := rtype.NewPattern(rtype.NewVariant(rtype.F("x")))
	yy := rtype.NewPattern(rtype.NewVariant(rtype.F("y")))
	filter := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
		Outputs: []FilterOutput{{CopyFields: []string{"x"}}},
	})
	fanout := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
		Outputs: []FilterOutput{
			{CopyFields: []string{"x"}},
			{RenameFields: []Rename{{From: "x", To: "y"}}},
		},
	})
	tagged := func(e *Entity) *Entity {
		// Wraps e so the input may carry the index tag <k> required by
		// the splits; incBox signatures ignore extra tags via subtyping.
		return e
	}
	return map[string]struct {
		e    *Entity
		outs int
	}{
		"Serial":       {SerialAll(incBox("a", 1), incBox("b", 1)), 1},
		"Choice":       {Choice(incBox("a", 1), Identity()), 1},
		"DetChoice":    {DetChoice(incBox("a", 1), incBox("b", 10)), 1},
		"Star":         {Star(incBox("s", 1), exit), 1},
		"Split":        {tagged(Split(incBox("a", 1), "k")), 1},
		"DetSplit":     {tagged(DetSplit(incBox("a", 1), "k")), 1},
		"SplitAt":      {tagged(SplitAt(incBox("a", 1), "k")), 1},
		"At":           {At(incBox("a", 1), 0), 1},
		"Observe":      {Observe(incBox("a", 1), func(ObserveDirection, *record.Record) {}), 1},
		"Filter":       {filter, 1},
		"FilterFanout": {fanout, 2},
		"Sync":         {SerialAll(NewSync(xy, yy), filter), 1},
	}
}

// TestSingleRecordBatchEveryCombinator drives one record — necessarily a
// one-record batch at every hop — through every combinator, across batch
// sizes including the degenerate BatchSize 1 and a batch far larger than
// the traffic.
func TestSingleRecordBatchEveryCombinator(t *testing.T) {
	leakcheck.Check(t)
	for _, bs := range []int{0, 1, 64} {
		for name, shape := range combinatorShapes() {
			ins := []*record.Record{record.Build().F("x", 0).T("k", 3).Rec()}
			if name == "Sync" {
				ins = append(ins, record.New().SetField("y", 1))
			}
			outs, err := NewNetwork(shape.e, Options{BatchSize: bs}).Run(ins...)
			if err != nil {
				t.Fatalf("%s (BatchSize %d): %v", name, bs, err)
			}
			if len(outs) != shape.outs {
				t.Fatalf("%s (BatchSize %d): %d outputs, want %d",
					name, bs, len(outs), shape.outs)
			}
		}
	}
}

// TestStopMidBatchLeakFree parks records in partial batches everywhere —
// a huge batch size and a disabled timer keep them pending — then stops
// the instance. Every goroutine must be reclaimed (leakcheck) with records
// still sitting in pending batches, queues and receiver buffers.
func TestStopMidBatchLeakFree(t *testing.T) {
	leakcheck.Check(t)
	slow := NewBox("slow", MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")}),
		func(c *BoxCall) error {
			time.Sleep(time.Millisecond)
			c.Emit(record.New().SetField("x", c.Field("x").(int)))
			return nil
		})
	e := SerialAll(incBox("a", 1), Choice(slow, Identity()), incBox("b", 1))
	inst := NewNetwork(e, Options{
		BufferSize: 1024,
		BatchSize:  512,
	}).Start()
	for i := 0; i < 100; i++ {
		if !inst.Send(record.New().SetField("x", i)) {
			t.Fatal("Send refused before Stop")
		}
	}
	// Some records are mid-pipeline in partial batches; stop now.
	if err := inst.Stop(); err != ErrStopped {
		t.Fatalf("Stop = %v", err)
	}
	// Depth bookkeeping may legitimately be nonzero (discarded records),
	// but the snapshot must not panic or race after Stop.
	_ = inst.LinkStats()
}

// TestDetChoiceDeterministicAcrossBatchBoundaries checks that DetChoice
// preserves input order for every batch size, including sizes that split
// the input stream at awkward points relative to the branch traffic.
func TestDetChoiceDeterministicAcrossBatchBoundaries(t *testing.T) {
	leakcheck.Check(t)
	const n = 200
	for _, bs := range []int{1, 2, 3, 5, 16} {
		slowEven := NewBox("slowEven", MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")}),
			func(c *BoxCall) error {
				x := c.Field("x").(int)
				if x%4 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
				c.Emit(record.New().SetField("x", x))
				return nil
			})
		never := NewBox("never", MustSig([]rtype.Label{rtype.F("y")}, []rtype.Label{rtype.F("y")}),
			func(c *BoxCall) error { return nil })
		e := DetChoice(slowEven, never)
		var ins []*record.Record
		for i := 0; i < n; i++ {
			ins = append(ins, record.New().SetField("x", i))
		}
		outs, err := NewNetwork(e, Options{BatchSize: bs, BufferSize: 8}).Run(ins...)
		if err != nil {
			t.Fatalf("BatchSize %d: %v", bs, err)
		}
		if len(outs) != n {
			t.Fatalf("BatchSize %d: %d outputs, want %d", bs, len(outs), n)
		}
		for i, r := range outs {
			if got := xVal(t, r); got != i {
				t.Fatalf("BatchSize %d: output %d = %d; DetChoice lost input order", bs, i, got)
			}
		}
	}
}

// TestDetSplitDeterministicAcrossBatchBoundaries is the same property for
// the deterministic indexed split, whose replicas see interleaved
// single-record and multi-record runs.
func TestDetSplitDeterministicAcrossBatchBoundaries(t *testing.T) {
	leakcheck.Check(t)
	const n = 120
	sig := MustSig([]rtype.Label{rtype.F("x"), rtype.T("k")}, []rtype.Label{rtype.F("x")})
	echo := NewBox("echo", sig, func(c *BoxCall) error {
		if c.Tag("k") == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		c.Emit(record.New().SetField("x", c.Field("x")).SetTag("k", c.Tag("k")))
		return nil
	})
	for _, bs := range []int{1, 3, 16} {
		var ins []*record.Record
		for i := 0; i < n; i++ {
			ins = append(ins, record.Build().F("x", i).T("k", i%3).Rec())
		}
		outs, err := NewNetwork(DetSplit(echo, "k"), Options{BatchSize: bs}).Run(ins...)
		if err != nil {
			t.Fatalf("BatchSize %d: %v", bs, err)
		}
		if len(outs) != n {
			t.Fatalf("BatchSize %d: %d outputs, want %d", bs, len(outs), n)
		}
		for i, r := range outs {
			if got := xVal(t, r); got != i {
				t.Fatalf("BatchSize %d: output %d = %d; DetSplit lost input order", bs, i, got)
			}
		}
	}
}

// TestLinkStatsSurface exercises the LinkStats hook: a drained pipeline
// reports conserved record counts, formed batches, and zero depth.
func TestLinkStatsSurface(t *testing.T) {
	leakcheck.Check(t)
	const n = 500
	e := SerialAll(incBox("a", 1), incBox("b", 1), incBox("c", 1))
	inst := NewNetwork(e, Options{}).Start()
	go func() {
		for i := 0; i < n; i++ {
			if !inst.Send(record.New().SetField("x", i)) {
				return
			}
		}
		close(inst.In)
	}()
	got := 0
	for range inst.Out {
		got++
	}
	if got != n {
		t.Fatalf("drained %d records, want %d", got, n)
	}
	stats := inst.LinkStats()
	// First link, two mids, last link.
	if len(stats) != 4 {
		t.Fatalf("LinkStats reports %d links, want 4", len(stats))
	}
	for i, ls := range stats {
		if ls.SentRecords != n || ls.RecvRecords != n {
			t.Errorf("link %d: sent %d recv %d, want %d", i, ls.SentRecords, ls.RecvRecords, n)
		}
		if ls.Depth != 0 {
			t.Errorf("link %d: depth %d after drain", i, ls.Depth)
		}
		if ls.SentBatches == 0 || ls.SentBatches > n {
			t.Errorf("link %d: %d batches for %d records", i, ls.SentBatches, n)
		}
		if ls.FullFlushes+ls.IdleFlushes+ls.TimerFlushes+ls.Steals != ls.SentBatches {
			t.Errorf("link %d: flush causes %d+%d+%d+%d do not sum to %d batches",
				i, ls.FullFlushes, ls.IdleFlushes, ls.TimerFlushes, ls.Steals, ls.SentBatches)
		}
	}
}

// TestLinkRegistryBoundedAcrossSingleShotReplicas pins the registry sweep:
// SplitAt under a dynamic placer gives every untagged record a fresh
// single-shot replica with two links of its own, and links whose receiver
// has seen end-of-stream must be folded into the cumulative first entry
// instead of pinning the registry's memory for the instance's lifetime.
func TestLinkRegistryBoundedAcrossSingleShotReplicas(t *testing.T) {
	leakcheck.Check(t)
	const steps = 300 // replicas; 2 links each
	inst := NewNetwork(SplitAt(splitOperand("solve"), "node"),
		Options{Platform: newFakeCluster(4), Placer: &RoundRobin{}}).Start()
	// One record at a time, so each replica has finished (and its links
	// have drained) before the next is allocated.
	for i := 0; i < steps; i++ {
		if !inst.Send(record.New().SetField("x", i)) {
			t.Fatal("Send refused")
		}
		if _, ok := <-inst.Out; !ok {
			t.Fatalf("output closed after %d records", i)
		}
	}
	stats := inst.LinkStats()
	if len(stats) >= steps {
		t.Fatalf("registry holds %d entries after %d replicas; sweep not folding", len(stats), steps)
	}
	// Conservation: the aggregate plus the survivors still account for
	// every record the replicas carried (one hop in, one hop out each).
	var sent int64
	for _, ls := range stats {
		sent += ls.SentRecords
	}
	if sent < 2*steps {
		t.Fatalf("folded stats lost traffic: %d records accounted, want >= %d", sent, 2*steps)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSynchronousOptionStillWorks pins the BufferSize<0 contract: fully
// synchronous record-at-a-time links.
func TestSynchronousOptionStillWorks(t *testing.T) {
	leakcheck.Check(t)
	outs, err := NewNetwork(SerialAll(incBox("a", 1), incBox("b", 1)),
		Options{BufferSize: -1}).Run(
		record.New().SetField("x", 0),
		record.New().SetField("x", 10))
	if err != nil || len(outs) != 2 {
		t.Fatalf("outs=%v err=%v", outs, err)
	}
}
