// Deterministic fault-tolerance tests, driven by internal/faultwire and a
// synthetic clock: hung-peer detection is proved by sweeping with
// manufactured times (no wall-clock waiting decides correctness), and the
// injected faults — blackholes, severs, torn frames — are applied at
// points the tests control exactly.
package wire

import (
	"sync"
	"testing"
	"time"

	"snet/internal/core"
	"snet/internal/faultwire"
	"snet/internal/leakcheck"
	"snet/internal/record"
)

// fakeClock is a hand-advanced time source for CoordinatorConfig.Clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
	return f.t
}

type boxCallResult struct {
	outs     []*record.Record
	remote   bool
	ok       bool
	localRan bool
	err      error
}

// execAsync runs one ExecBox in a goroutine, delivering the outcome.
func execAsync(cl *Cluster, node int, box string, in *record.Record) <-chan boxCallResult {
	done := make(chan boxCallResult, 1)
	go func() {
		var r boxCallResult
		r.outs, r.remote, r.ok, r.err = cl.ExecBox(node, nil, box, in, false,
			func() { r.localRan = true })
		done <- r
	}()
	return done
}

// waitFor polls cond until it holds or the deadline passes; the waits are
// for asynchronous delivery, never for triggering the behavior itself.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHungPeerDetectedByHeartbeat proves liveness detection catches a
// worker that is reachable but silent — the connection stays open, bytes
// go in, nothing comes out — which no read-error path can see. The
// worker's outbound direction is blackholed mid-call; only the heartbeat
// sweep crossing the liveness timeout (driven by a synthetic clock, no
// real waiting) declares it dead and fails the pending call over to a
// local slot.
func TestHungPeerDetectedByHeartbeat(t *testing.T) {
	leakcheck.Check(t)
	fc := newFakeClock()
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{
		Workers: 1, CPUsPerNode: 1, JoinTimeout: 10 * time.Second,
		// An hour-scale interval keeps the background ticker inert: every
		// sweep in this test is explicit, at a manufactured time.
		HeartbeatInterval: time.Hour, // liveness defaults to 4h
		Clock:             Clock{NowFn: fc.now},
	})
	if err != nil {
		t.Fatal(err)
	}
	var d faultwire.Dialer
	w := NewWorker(WorkerConfig{Dial: d.Dial})
	w.Register("double", doubler)
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(cl.Addr().String()) }()
	if err := cl.WaitReady(); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	link := d.Last()
	defer func() {
		// Unblock anything still parked in the blackhole so the worker
		// goroutine can unwind.
		link.SetWriteMode(faultwire.Pass, 0)
		cl.Close()
		<-workerErr
	}()

	// Hang the worker: everything it sends from now on is withheld. The
	// EXEC still reaches it (inbound is untouched) — it goes to work and
	// its frames vanish, exactly a wedged-but-alive process.
	link.SetWriteMode(faultwire.Blackhole, 0)
	done := execAsync(cl, 1, "double", record.New().SetField("x", 5))
	waitFor(t, "EXEC dispatch", func() bool { return cl.WireStats().FramesSent >= 2 })

	// One heartbeat interval of silence: the sweep PINGs, and that is
	// all. Without liveness expiry there is provably no progress — the
	// RESULT cannot arrive, and nothing has failed the call over.
	cl.sweep(fc.advance(2 * time.Hour))
	select {
	case r := <-done:
		t.Fatalf("call completed with only a PING sweep: %+v", r)
	default:
	}
	if ws := cl.WireStats(); ws.LiveWorkers != 1 || ws.Failovers != 0 {
		t.Fatalf("after PING sweep: %+v", ws)
	}

	// Past the liveness timeout the sweep declares the peer dead, which
	// fails the pending call over to the local slot.
	cl.sweep(fc.advance(3 * time.Hour)) // 5h silent > 4h liveness
	r := <-done
	if r.err != nil || !r.ok || r.remote || !r.localRan {
		t.Fatalf("failover: %+v", r)
	}
	ws := cl.WireStats()
	if ws.Failovers != 1 || ws.LocalExecs != 1 || ws.LiveWorkers != 0 {
		t.Fatalf("stats = %+v", ws)
	}
}

// TestCallTimeoutQuarantineAndProbeBack drives the whole fault ledger:
// call deadlines convert a stuck box into timeouts and a bounded retry,
// the second fault inside the window quarantines the node (excluded from
// dispatch, reported saturated by Loads), and after the cool-down a sweep
// PING — answered by the still-alive worker — requalifies it, restoring
// remote dispatch. The box is stuck because the test holds it on a
// channel, so every timeout is certain, not a race won.
func TestCallTimeoutQuarantineAndProbeBack(t *testing.T) {
	leakcheck.Check(t)
	fc := newFakeClock()
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{
		Workers: 1, CPUsPerNode: 2, JoinTimeout: 10 * time.Second,
		HeartbeatInterval:  time.Hour,
		CallTimeout:        50 * time.Millisecond,
		CallRetries:        1,
		FaultLimit:         2,
		FaultWindow:        24 * time.Hour,
		QuarantineCooldown: time.Hour,
		Clock:              Clock{NowFn: fc.now},
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var d faultwire.Dialer
	w := NewWorker(WorkerConfig{Dial: d.Dial})
	w.Register("held", func(c *core.BoxCall) error {
		<-release
		c.Emit(c.NewRecord().SetField("x", c.Field("x").(int)*2))
		return nil
	})
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(cl.Addr().String()) }()
	if err := cl.WaitReady(); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	defer func() {
		cl.Close()
		<-workerErr
	}()

	// Call 1: attempt times out, the retry times out, the second fault
	// trips the quarantine, and the call fails over to a local slot.
	r := <-execAsync(cl, 1, "held", record.New().SetField("x", 1))
	if r.err != nil || !r.ok || r.remote || !r.localRan {
		t.Fatalf("quarantining call: %+v", r)
	}
	ws := cl.WireStats()
	if ws.Timeouts != 2 || ws.Retries != 1 || ws.Quarantines != 1 || ws.Failovers != 1 {
		t.Fatalf("stats = %+v", ws)
	}
	if !cl.quarantined(1) {
		t.Fatal("node 1 not quarantined after FaultLimit faults")
	}
	if loads := cl.Loads(nil); loads[1] < unavailableLoad {
		t.Fatalf("Loads[1] = %d: quarantined node not reported saturated", loads[1])
	}

	// While quarantined, calls run locally at once — no deadline burned.
	r = <-execAsync(cl, 1, "held", record.New().SetField("x", 2))
	if !r.localRan || r.remote {
		t.Fatalf("quarantined-node call: %+v", r)
	}
	if ws := cl.WireStats(); ws.Timeouts != 2 || ws.LocalExecs != 2 {
		t.Fatalf("quarantine must bypass the deadline path: %+v", ws)
	}

	// Probe-back: past the cool-down, the sweep PINGs the quarantined
	// peer even though it is excluded from dispatch; its PONG is the
	// evidence of life that requalifies it. The link was otherwise silent
	// (the held boxes have sent nothing), so the PING is load-bearing.
	cl.sweep(fc.advance(2 * time.Hour))
	waitFor(t, "requalification", func() bool { return !cl.quarantined(1) })

	// Release the held boxes: their late RESULTs arrive for dropped
	// request ids and are discarded — and the link's codecs are still
	// consistent, proved by the remote call that follows.
	close(release)
	r = <-execAsync(cl, 1, "held", record.New().SetField("x", 3))
	if r.err != nil || !r.remote {
		t.Fatalf("post-requalify call: %+v", r)
	}
	if v, _ := r.outs[0].Field("x"); v != 6 {
		t.Fatalf("x = %v", v)
	}
	if ws := cl.WireStats(); ws.RemoteExecs != 1 {
		t.Fatalf("stats = %+v", ws)
	}
}

// TestLateResultDiscardedWithoutRetry covers the no-retry configuration:
// one timeout fails straight over, the RESULT that eventually arrives for
// the abandoned request id is discarded — and because its decode still
// ran, the link's codecs stay in step and the next call goes remote.
func TestLateResultDiscardedWithoutRetry(t *testing.T) {
	leakcheck.Check(t)
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{
		Workers: 1, CPUsPerNode: 2, JoinTimeout: 10 * time.Second,
		HeartbeatInterval: time.Hour,
		CallTimeout:       50 * time.Millisecond,
		CallRetries:       -1, // no retries: first timeout fails over
		FaultLimit:        100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var d faultwire.Dialer
	w := NewWorker(WorkerConfig{Dial: d.Dial})
	w.Register("double", doubler)
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(cl.Addr().String()) }()
	if err := cl.WaitReady(); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	link := d.Last()
	defer func() {
		link.SetWriteMode(faultwire.Pass, 0)
		cl.Close()
		<-workerErr
	}()

	link.SetWriteMode(faultwire.Blackhole, 0)
	r := <-execAsync(cl, 1, "double", record.New().SetField("x", 4))
	if r.err != nil || !r.localRan || r.remote {
		t.Fatalf("timed-out call: %+v", r)
	}
	ws := cl.WireStats()
	if ws.Timeouts != 1 || ws.Retries != 0 || ws.Failovers != 1 || ws.Quarantines != 0 {
		t.Fatalf("stats = %+v", ws)
	}

	// Recovery: the withheld frames (the late RESULT) deliver in order; the stale RESULT matches no pending call and is dropped.
	link.SetWriteMode(faultwire.Pass, 0)
	r = <-execAsync(cl, 1, "double", record.New().SetField("x", 5))
	if r.err != nil || !r.remote {
		t.Fatalf("post-recovery call: %+v", r)
	}
	if v, _ := r.outs[0].Field("x"); v != 10 {
		t.Fatalf("x = %v", v)
	}
}

// TestWorkerRejoinReceivesNewExecs severs a live worker's connection and
// lets RunLoop reconnect it: the coordinator must accept the RE-HELLO for
// node 1, reset the link codecs, count the rejoin, and dispatch new EXECs
// to the rejoined worker — the remote call succeeding after rejoin is the
// proof the codec Reset actually produced a fresh negotiation.
func TestWorkerRejoinReceivesNewExecs(t *testing.T) {
	leakcheck.Check(t)
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{
		Workers: 1, CPUsPerNode: 1, JoinTimeout: 10 * time.Second,
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	var d faultwire.Dialer
	w := NewWorker(WorkerConfig{Dial: d.Dial, ReconnectBase: time.Millisecond})
	w.Register("double", doubler)
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.RunLoop(cl.Addr().String(), 100) }()
	if err := cl.WaitReady(); err != nil {
		cl.Close()
		t.Fatal(err)
	}

	r := <-execAsync(cl, 1, "double", record.New().SetField("x", 6))
	if r.err != nil || !r.remote {
		t.Fatalf("pre-sever call: %+v", r)
	}

	d.Last().Sever()
	waitFor(t, "rejoin", func() bool {
		ws := cl.WireStats()
		return ws.Rejoins >= 1 && ws.LiveWorkers == 1
	})
	if len(d.Conns()) < 2 {
		t.Fatalf("dialed %d connections, want a reconnect", len(d.Conns()))
	}

	// New EXECs flow to the rejoined node: the call goes remote, with a
	// label negotiation starting from scratch on the reset codecs.
	r = <-execAsync(cl, 1, "double", record.New().SetField("x", 7))
	if r.err != nil || !r.remote {
		t.Fatalf("post-rejoin call: %+v", r)
	}
	if v, _ := r.outs[0].Field("x"); v != 14 {
		t.Fatalf("x = %v", v)
	}
	if ws := cl.WireStats(); ws.RemoteExecs != 2 || ws.Rejoins != 1 {
		t.Fatalf("stats = %+v", ws)
	}
	// The model's per-node accounting shows the post-rejoin execution on
	// the same node id.
	if ex := cl.Stats().Execs[1]; ex != 2 {
		t.Fatalf("model execs on node 1 = %d, want 2", ex)
	}

	// Orderly shutdown ends the reconnect loop with a nil error.
	cl.Close()
	if err := <-workerErr; err != nil {
		t.Fatalf("RunLoop exit: %v", err)
	}
}

// TestConcurrentHammerSurvivesMidResultSever is the many-in-flight
// failover test: 64 concurrent calls against one worker whose outbound
// stream is torn mid-frame (a byte budget lands the sever inside a frame,
// the truncation a SIGKILL produces). Every call must complete — remotely
// before the cut, locally after — with at least one observed failover,
// and no goroutine left behind.
func TestConcurrentHammerSurvivesMidResultSever(t *testing.T) {
	leakcheck.Check(t)
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{
		Workers: 1, CPUsPerNode: 4, JoinTimeout: 10 * time.Second,
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	var d faultwire.Dialer
	w := NewWorker(WorkerConfig{Dial: d.Dial})
	w.Register("double", doubler)
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(cl.Addr().String()) }()
	if err := cl.WaitReady(); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	defer func() {
		cl.Close()
		<-workerErr
	}()

	// 40 bytes of budget lands inside the first few worker frames (a
	// RESULT is 16 bytes before its batch): some frame is
	// guaranteed torn while its call — which cannot have completed — is
	// still pending, so Failovers >= 1 is certain, not probabilistic.
	d.Last().SeverAfterWrite(40)

	const calls = 64
	results := make([]boxCallResult, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = <-execAsync(cl, 1, "double", record.New().SetField("x", i))
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil || !r.ok {
			t.Fatalf("call %d: %+v", i, r)
		}
		if r.remote {
			if v, _ := r.outs[0].Field("x"); v != i*2 {
				t.Fatalf("call %d: remote x = %v, want %d", i, v, i*2)
			}
		} else if !r.localRan {
			t.Fatalf("call %d neither remote nor local: %+v", i, r)
		}
	}
	ws := cl.WireStats()
	if ws.Failovers < 1 {
		t.Fatalf("no failover despite mid-frame sever: %+v", ws)
	}
	if ws.RemoteExecs+ws.LocalExecs != calls {
		t.Fatalf("execs don't add up: %+v", ws)
	}
	if ws.LiveWorkers != 0 {
		t.Fatalf("severed worker still counted live: %+v", ws)
	}
}
