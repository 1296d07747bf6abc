package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// withTimeout fails the test if fn does not return within d.
func withTimeout(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// saturate feeds records through Send until the instance stops accepting
// them promptly (every buffer in the path is full) or n records are in.
func saturate(t *testing.T, inst *Instance, n int, mk func(i int) *record.Record) {
	t.Helper()
	for i := 0; i < n; i++ {
		delivered := make(chan bool, 1)
		go func(r *record.Record) { delivered <- inst.Send(r) }(mk(i))
		select {
		case ok := <-delivered:
			if !ok {
				t.Fatal("Send refused before Stop")
			}
		case <-time.After(50 * time.Millisecond):
			// The pipeline is wedged on its buffers — saturated. The
			// in-flight Send unblocks via Done when the test stops the
			// instance.
			return
		}
	}
}

func TestStopSaturatedPipelineReclaimsEverything(t *testing.T) {
	leakcheck.Check(t)
	// A deep composition — serial boxes, a choice, an unrolling star —
	// with tiny buffers and an unread Out: every entity ends up blocked
	// on a send. Stop must unwind all of it.
	e := SerialAll(
		incBox("a", 1),
		Choice(incBox("b", 10), Identity()),
		Star(incBox("s", 1), rtype.NewPattern(rtype.NewVariant(rtype.F("x"))).WithGuard(
			func(r *record.Record) bool {
				v, _ := r.Field("x")
				iv, _ := v.(int)
				return iv >= 1000
			}, "x >= 1000")),
	)
	inst := NewNetwork(e, Options{BufferSize: 1}).Start()
	saturate(t, inst, 500, func(i int) *record.Record {
		return record.New().SetField("x", i)
	})
	withTimeout(t, 5*time.Second, "Stop on a saturated network", func() {
		if err := inst.Stop(); !errors.Is(err, ErrStopped) {
			t.Errorf("Stop = %v, want ErrStopped", err)
		}
	})
	if err := inst.Err(); !errors.Is(err, ErrStopped) {
		t.Errorf("Err() = %v, want to include ErrStopped", err)
	}
}

func TestStopDuringBoxExecution(t *testing.T) {
	leakcheck.Check(t)
	started := make(chan struct{})
	release := make(chan struct{})
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	blocking := NewBox("blocking", sig, func(c *BoxCall) error {
		close(started)
		<-release
		c.Emit(record.New().SetField("x", 1))
		return nil
	})
	inst := NewNetwork(blocking, Options{}).Start()
	if !inst.Send(record.New().SetField("x", 0)) {
		t.Fatal("Send refused")
	}
	<-started
	stopRet := make(chan error, 1)
	go func() { stopRet <- inst.Stop() }()
	// Stop must wait for the running box body — executions are never
	// interrupted mid-flight — so it cannot have returned yet.
	select {
	case err := <-stopRet:
		t.Fatalf("Stop returned %v while a box body was still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-stopRet:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("Stop = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after the box body finished")
	}
}

// heldPlatform never grants a CPU slot: its ExecBox reports each queued
// execution and returns ok=false, without running the body, only once
// cancel fires.
type heldPlatform struct {
	LocalPlatform
	queued chan struct{}
}

func (p *heldPlatform) ExecBox(_ int, cancel <-chan struct{}, _ string, _ *record.Record,
	_ bool, _ func()) ([]*record.Record, bool, bool, error) {
	p.queued <- struct{}{}
	<-cancel
	return nil, false, false, nil
}

// TestStopCancelsQueuedExecBox pins cancellation at the platform seam: a
// box execution queued on a platform that never grants a slot is abandoned
// by Stop, whose done channel is the cancel every ExecBox call receives.
func TestStopCancelsQueuedExecBox(t *testing.T) {
	leakcheck.Check(t)
	plat := &heldPlatform{queued: make(chan struct{}, 1)}
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	box := NewBox("held", sig, func(c *BoxCall) error {
		t.Error("box body ran on a platform that granted no slot")
		return nil
	})
	inst := NewNetwork(box, Options{Platform: plat}).Start()
	if !inst.Send(record.New().SetField("x", 0)) {
		t.Fatal("Send refused")
	}
	<-plat.queued
	withTimeout(t, 5*time.Second, "Stop with an execution queued for a slot", func() {
		if err := inst.Stop(); !errors.Is(err, ErrStopped) {
			t.Errorf("Stop = %v, want ErrStopped", err)
		}
	})
}

func TestStopWithBlockedConsumer(t *testing.T) {
	leakcheck.Check(t)
	inst := NewNetwork(incBox("inc", 1), Options{}).Start()
	// A consumer blocked on an empty Out must be released by Stop via the
	// Out close.
	consumed := make(chan int, 1)
	go func() {
		n := 0
		for range inst.Out {
			n++
		}
		consumed <- n
	}()
	withTimeout(t, 5*time.Second, "Stop with a blocked consumer", func() { inst.Stop() })
	select {
	case <-consumed:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer still blocked on Out after Stop")
	}
}

func TestDoubleStopIdempotent(t *testing.T) {
	leakcheck.Check(t)
	inst := NewNetwork(incBox("inc", 1), Options{}).Start()
	withTimeout(t, 5*time.Second, "double Stop", func() {
		err1 := inst.Stop()
		err2 := inst.Stop()
		if !errors.Is(err1, ErrStopped) || !errors.Is(err2, ErrStopped) {
			t.Errorf("Stop, Stop = %v, %v", err1, err2)
		}
	})
	// Exactly one ErrStopped lands in the sink.
	if n := inst.ErrCount(); n != 1 {
		t.Errorf("ErrCount after double Stop = %d, want 1", n)
	}
}

func TestSendAfterStopRefused(t *testing.T) {
	leakcheck.Check(t)
	inst := NewNetwork(incBox("inc", 1), Options{}).Start()
	inst.Stop()
	if inst.Send(record.New().SetField("x", 1)) {
		t.Fatal("Send accepted a record after Stop")
	}
	select {
	case <-inst.Done():
	default:
		t.Fatal("Done not closed after Stop")
	}
}

func TestCloseOrderly(t *testing.T) {
	leakcheck.Check(t)
	inst := NewNetwork(incBox("inc", 1), Options{}).Start()
	for i := 0; i < 3; i++ {
		if !inst.Send(record.New().SetField("x", i)) {
			t.Fatal("Send refused")
		}
	}
	// Close drains and recycles the unread output and reports no error.
	withTimeout(t, 5*time.Second, "Close", func() {
		if err := inst.Close(); err != nil {
			t.Errorf("Close = %v", err)
		}
	})
}

func TestCloseAfterStopAndStopAfterClose(t *testing.T) {
	leakcheck.Check(t)
	a := NewNetwork(incBox("inc", 1), Options{}).Start()
	a.Stop()
	withTimeout(t, 5*time.Second, "Close after Stop", func() {
		if err := a.Close(); !errors.Is(err, ErrStopped) {
			t.Errorf("Close after Stop = %v, want ErrStopped", err)
		}
	})
	b := NewNetwork(incBox("inc", 1), Options{}).Start()
	withTimeout(t, 5*time.Second, "Close then Stop", func() {
		if err := b.Close(); err != nil {
			t.Errorf("Close = %v", err)
		}
		if err := b.Stop(); !errors.Is(err, ErrStopped) {
			t.Errorf("Stop after Close = %v", err)
		}
	})
}

func TestRunContextCancel(t *testing.T) {
	leakcheck.Check(t)
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	slow := NewBox("slow", sig, func(c *BoxCall) error {
		time.Sleep(5 * time.Millisecond)
		c.Emit(record.New().SetField("x", c.Field("x").(int)))
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var ins []*record.Record
	for i := 0; i < 1000; i++ {
		ins = append(ins, record.New().SetField("x", i))
	}
	var outs []*record.Record
	var err error
	withTimeout(t, 5*time.Second, "cancelled RunContext", func() {
		outs, err = NewNetwork(slow, Options{}).RunContext(ctx, ins...)
	})
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want DeadlineExceeded and ErrStopped", err)
	}
	if len(outs) >= 1000 {
		t.Fatalf("cancelled run still produced all %d outputs", len(outs))
	}
}

func TestRunContextCompletes(t *testing.T) {
	leakcheck.Check(t)
	outs, err := NewNetwork(incBox("inc", 1), Options{}).RunContext(
		context.Background(), record.New().SetField("x", 41))
	if err != nil || len(outs) != 1 || xVal(t, outs[0]) != 42 {
		t.Fatalf("outs=%v err=%v", outs, err)
	}
}

func TestStopStarUnrollingLeakFree(t *testing.T) {
	leakcheck.Check(t)
	// A star that keeps unrolling replicas (exit threshold never reached
	// by the first inputs) and an unread Out: Stop while replicas are
	// mid-instantiation.
	sig := MustSig([]rtype.Label{rtype.T("n")}, []rtype.Label{rtype.T("n")})
	inc := NewBox("incn", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetTag("n", c.Tag("n")+1))
		return nil
	})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(func(r *record.Record) bool {
		v, _ := r.Tag("n")
		return v >= 1_000_000
	}, "<n> >= 1000000")
	inst := NewNetwork(Star(inc, exit), Options{BufferSize: 1}).Start()
	saturate(t, inst, 64, func(i int) *record.Record {
		return record.New().SetTag("n", 0)
	})
	withTimeout(t, 5*time.Second, "Stop of an unrolling star", func() { inst.Stop() })
}

func TestStopSplitInstancesLeakFree(t *testing.T) {
	leakcheck.Check(t)
	sig := MustSig([]rtype.Label{rtype.F("x"), rtype.T("k")}, []rtype.Label{rtype.F("x")})
	echo := NewBox("echo", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x")).SetTag("k", c.Tag("k")))
		return nil
	})
	inst := NewNetwork(Split(echo, "k"), Options{BufferSize: 1}).Start()
	saturate(t, inst, 64, func(i int) *record.Record {
		return record.Build().F("x", i).T("k", i%8).Rec()
	})
	withTimeout(t, 5*time.Second, "Stop of a split", func() { inst.Stop() })
}

func TestStopDetChoiceLeakFree(t *testing.T) {
	leakcheck.Check(t)
	inst := NewNetwork(DetChoice(incBox("a", 1), incBox("b", 2)), Options{BufferSize: 1}).Start()
	saturate(t, inst, 64, func(i int) *record.Record {
		return record.New().SetField("x", i)
	})
	withTimeout(t, 5*time.Second, "Stop of a det-choice", func() { inst.Stop() })
}

// --- Choice control routing ---------------------------------------------

func TestChoiceControlRecordKeepsBranchOrder(t *testing.T) {
	leakcheck.Check(t)
	// Branch 0 is the (elided) identity, branch 1 a slow box. A control
	// record sent after a data record must not overtake the data queued
	// in the non-elided branch — it rides the same channel.
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	slow := NewBox("slowbox", sig, func(c *BoxCall) error {
		time.Sleep(30 * time.Millisecond)
		c.Emit(record.New().SetField("x", c.Field("x").(int)))
		return nil
	})
	e := Choice(Identity(), slow)
	outs, err := NewNetwork(e, Options{}).Run(
		record.New().SetField("x", 7), // routed to slow (more specific)
		record.NewTrigger(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outputs, want 2", len(outs))
	}
	if !outs[0].IsData() || outs[1].IsData() {
		t.Fatalf("control record overtook data queued in its branch: [%s %s]",
			outs[0], outs[1])
	}
}

func TestChoiceAllIdentityControlPassThrough(t *testing.T) {
	leakcheck.Check(t)
	outs, err := NewNetwork(Choice(Identity(), Identity()), Options{}).Run(
		record.NewTrigger())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].IsData() {
		t.Fatalf("outs = %v", outs)
	}
}

// --- error sink bounds ---------------------------------------------------

func TestErrSinkBoundedUnderFlood(t *testing.T) {
	leakcheck.Check(t)
	inst := NewNetwork(incBox("inc", 1), Options{}).Start()
	const flood = 10 * maxRetainedErrors
	for i := 0; i < flood; i++ {
		if !inst.Send(record.New().SetField("wrong", i)) {
			t.Fatal("Send refused")
		}
	}
	if err := inst.Close(); err == nil {
		t.Fatal("flood of unmatched records reported no error")
	}
	if n := inst.ErrCount(); n != flood {
		t.Fatalf("ErrCount = %d, want %d", n, flood)
	}
	msg := inst.Err().Error()
	if !strings.Contains(msg, "further errors dropped") {
		t.Fatalf("joined error lacks the dropped-count summary:\n%.300s", msg)
	}
	// The retained set is bounded: the joined message must not contain
	// anywhere near `flood` lines.
	if n := strings.Count(msg, "\n"); n > maxRetainedErrors+1 {
		t.Fatalf("joined error has %d lines; retention cap leaks", n)
	}
}

func TestStopAfterErrorFloodStillReportsErrStopped(t *testing.T) {
	leakcheck.Check(t)
	// The stopped marker lives outside the capped retention: even when a
	// flood has filled the sink before the abort, errors.Is must find
	// ErrStopped.
	inst := NewNetwork(incBox("inc", 1), Options{}).Start()
	for i := 0; i < 2*maxRetainedErrors; i++ {
		if !inst.Send(record.New().SetField("wrong", i)) {
			t.Fatal("Send refused")
		}
	}
	// Let the box consume (and report) the whole flood before stopping.
	deadline := time.Now().Add(5 * time.Second)
	for inst.ErrCount() < 2*maxRetainedErrors {
		if time.Now().After(deadline) {
			t.Fatalf("flood not fully reported: %d", inst.ErrCount())
		}
		time.Sleep(time.Millisecond)
	}
	inst.Stop()
	if err := inst.Err(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Err after flood+Stop lost ErrStopped: %.200s", err)
	}
}

func TestErrSinkRetainsFirstErrors(t *testing.T) {
	s := &errSink{}
	for i := 0; i < maxRetainedErrors+5; i++ {
		s.add(errors.New("e"))
	}
	if got := len(s.all()); got != maxRetainedErrors+1 {
		t.Fatalf("retained %d, want %d + summary", got, maxRetainedErrors)
	}
	if s.count() != maxRetainedErrors+5 {
		t.Fatalf("count = %d", s.count())
	}
}
