package wire

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"snet/internal/core"
	"snet/internal/leakcheck"
	"snet/internal/record"
)

// The coordinator must satisfy the runtime's platform contract.
var _ core.Platform = (*Cluster)(nil)

// testFleet runs a coordinator and n in-process Workers over real
// loopback TCP — every frame, codec negotiation, and goroutine is the
// production path; only the process boundary is folded away.
type testFleet struct {
	cl      *Cluster
	workers []*Worker
	wg      sync.WaitGroup
	errs    []error
}

func startFleet(t *testing.T, n, cpus int, ext *ExtTable, boxes map[string]core.BoxFunc) *testFleet {
	t.Helper()
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{
		Workers: n, CPUsPerNode: cpus, Ext: ext, JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{cl: cl, errs: make([]error, n)}
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{Ext: ext})
		for name, fn := range boxes {
			w.Register(name, fn)
		}
		f.workers = append(f.workers, w)
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			f.errs[i] = w.Run(cl.Addr().String())
		}(i)
	}
	if err := cl.WaitReady(); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		f.wg.Wait()
	})
	return f
}

func doubler(c *core.BoxCall) error {
	c.Emit(c.NewRecord().SetField("x", c.Field("x").(int)*2))
	return nil
}

func TestLoopbackExecRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	f := startFleet(t, 1, 2, nil, map[string]core.BoxFunc{"double": doubler})
	in := record.Build().F("x", 21).T("seq", 7).Rec()
	outs, remote, ok, err := f.cl.ExecBox(1, nil, "double", in, false, func() {
		t.Error("local fallback ran for a registered, marshalable box")
	})
	if err != nil || !ok || !remote {
		t.Fatalf("remote=%v ok=%v err=%v", remote, ok, err)
	}
	if len(outs) != 1 {
		t.Fatalf("outs = %v", outs)
	}
	if v, _ := outs[0].Field("x"); v != 42 {
		t.Fatalf("x = %v", v)
	}
	// CallBox runs detached: the worker must NOT have applied flow
	// inheritance — that is the coordinator's job, after ExecBox returns.
	if outs[0].HasTag("seq") {
		t.Fatalf("worker applied flow inheritance: %s", outs[0])
	}
	ws := f.cl.WireStats()
	if ws.RemoteExecs != 1 || ws.LocalExecs != 0 {
		t.Fatalf("stats = %+v", ws)
	}
	if f.cl.Stats().Execs[1] != 1 {
		t.Fatalf("model execs = %v", f.cl.Stats().Execs)
	}
}

func TestLoopbackCodecNegotiationOnce(t *testing.T) {
	leakcheck.Check(t)
	f := startFleet(t, 1, 1, nil, map[string]core.BoxFunc{"double": doubler})
	for i := 0; i < 3; i++ {
		in := record.Build().F("x", i).Rec()
		if _, _, _, err := f.cl.ExecBox(1, nil, "double", in, false, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	// Label "x" crossed each direction once; later EXECs carry symbol
	// references. 3 identical round trips with shrinking-or-equal frames
	// is the observable: bytes/frame must drop after the first.
	ws := f.cl.WireStats()
	if ws.RemoteExecs != 3 {
		t.Fatalf("remote execs = %d", ws.RemoteExecs)
	}
}

func TestExecBoxUnregisteredBoxRunsLocal(t *testing.T) {
	leakcheck.Check(t)
	f := startFleet(t, 1, 1, nil, map[string]core.BoxFunc{"double": doubler})
	ran := false
	_, remote, ok, err := f.cl.ExecBox(1, nil, "merge", record.New(), false, func() { ran = true })
	if err != nil || !ok || remote || !ran {
		t.Fatalf("remote=%v ok=%v ran=%v err=%v", remote, ok, ran, err)
	}
	if ws := f.cl.WireStats(); ws.LocalExecs != 1 || ws.RemoteExecs != 0 {
		t.Fatalf("stats = %+v", ws)
	}
}

func TestExecBoxUnserializableInputRunsLocal(t *testing.T) {
	leakcheck.Check(t)
	f := startFleet(t, 1, 1, nil, map[string]core.BoxFunc{"double": doubler})
	ran := false
	in := record.New().SetField("x", struct{ no int }{1})
	_, remote, ok, err := f.cl.ExecBox(1, nil, "double", in, false, func() { ran = true })
	if err != nil || !ok || remote || !ran {
		t.Fatalf("remote=%v ok=%v ran=%v err=%v", remote, ok, ran, err)
	}
}

func TestExecBoxNode0RunsLocal(t *testing.T) {
	leakcheck.Check(t)
	f := startFleet(t, 1, 1, nil, map[string]core.BoxFunc{"double": doubler})
	ran := false
	_, remote, ok, _ := f.cl.ExecBox(0, nil, "double", record.New().SetField("x", 1), false,
		func() { ran = true })
	if !ok || remote || !ran {
		t.Fatalf("node 0 must run in-process: remote=%v ok=%v ran=%v", remote, ok, ran)
	}
}

func TestRemoteBoxErrorSurfaces(t *testing.T) {
	leakcheck.Check(t)
	boxes := map[string]core.BoxFunc{
		"half": func(c *core.BoxCall) error {
			c.Emit(c.NewRecord().SetField("y", 1))
			return errors.New("lens cracked")
		},
	}
	f := startFleet(t, 1, 1, nil, boxes)
	outs, remote, ok, err := f.cl.ExecBox(1, nil, "half", record.New(), false, func() {})
	if !ok || !remote {
		t.Fatalf("remote=%v ok=%v", remote, ok)
	}
	if err == nil || !strings.Contains(err.Error(), "lens cracked") {
		t.Fatalf("err = %v", err)
	}
	// Local semantics: emissions before the failure still flow.
	if len(outs) != 1 {
		t.Fatalf("outs = %v", outs)
	}
}

func TestDispatchTimeStealCrossesWire(t *testing.T) {
	leakcheck.Check(t)
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	boxes := map[string]core.BoxFunc{
		"slow": func(c *core.BoxCall) error {
			started <- struct{}{}
			<-block
			c.Emit(c.NewRecord().SetField("x", c.Field("x").(int)))
			return nil
		},
	}
	f := startFleet(t, 2, 1, nil, boxes)
	var wg sync.WaitGroup
	results := make([]bool, 2)
	// Two stealable execs, both homed on node 1, one CPU per node: the
	// first occupies node 1's slot, the second must be granted node 2's —
	// and cross the wire as a STEAL-GRANT frame to the OTHER worker.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := record.Build().F("x", i).Rec()
			_, remote, ok, err := f.cl.ExecBox(1, nil, "slow", in, true, func() {})
			results[i] = ok && remote && err == nil
		}(i)
	}
	// Both box bodies running concurrently proves the grant migrated.
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("second execution never started: steal did not happen")
		}
	}
	close(block)
	wg.Wait()
	if !results[0] || !results[1] {
		t.Fatalf("results = %v", results)
	}
	if st := f.cl.Stats(); st.Steals != 1 || st.Migrated != 1 {
		t.Fatalf("model stats = %+v", st)
	}
	if ws := f.cl.WireStats(); ws.StolenExecs != 1 || ws.RemoteExecs != 2 {
		t.Fatalf("wire stats = %+v", ws)
	}
}

func TestPeerDeathFailsOverToLocal(t *testing.T) {
	leakcheck.Check(t)
	// A fake worker: joins the fleet, then slams the connection shut the
	// moment the first EXEC arrives — death mid-call.
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{
		Workers: 1, CPUsPerNode: 1,
		// The fake worker never answers PINGs; keep the sweep inert so
		// only the explicit connection kill is in play.
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn, err := net.Dial("tcp", cl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendFrame(nil, fHello, appendHello(nil, 1, 0, []string{"double"}))); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn, DefaultMaxFrame); err != nil || typ != fWelcome {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	if err := cl.WaitReady(); err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	go func() {
		readFrame(conn, DefaultMaxFrame) // the EXEC
		conn.Close()
		close(killed)
	}()
	ran := false
	outs, remote, ok, err := cl.ExecBox(1, nil, "double", record.New().SetField("x", 3), false,
		func() { ran = true })
	<-killed
	if err != nil || !ok || remote || !ran || outs != nil {
		t.Fatalf("failover broken: remote=%v ok=%v ran=%v outs=%v err=%v", remote, ok, ran, outs, err)
	}
	ws := cl.WireStats()
	if ws.Failovers != 1 || ws.LocalExecs != 1 || ws.LiveWorkers != 0 {
		t.Fatalf("stats = %+v", ws)
	}
	// The dead peer must not strand the platform: further execs on that
	// node run locally without waiting on the corpse.
	ran = false
	_, remote, ok, err = cl.ExecBox(1, nil, "double", record.New().SetField("x", 4), false,
		func() { ran = true })
	if err != nil || !ok || remote || !ran {
		t.Fatalf("post-death exec: remote=%v ok=%v ran=%v err=%v", remote, ok, ran, err)
	}
}

func TestHelloVersionMismatchRefused(t *testing.T) {
	leakcheck.Check(t)
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{Workers: 1, CPUsPerNode: 1, JoinTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn, err := net.Dial("tcp", cl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := appendHello(nil, 1, 0, nil)
	bad[4] = 0xfe // corrupt the version field (bytes 4..5, after the magic)
	if _, err := conn.Write(appendFrame(nil, fHello, bad)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn, DefaultMaxFrame)
	if err != nil || typ != fGoodbye {
		t.Fatalf("typ=%d err=%v, want GOODBYE", typ, err)
	}
	reason, _ := parseGoodbye(payload)
	if !strings.Contains(reason, "version") {
		t.Fatalf("reason = %q", reason)
	}
	// The refused join must not burn the slot: a well-versioned worker
	// joining afterwards completes the fleet.
	w := NewWorker(WorkerConfig{})
	done := make(chan error, 1)
	go func() { done <- w.Run(cl.Addr().String()) }()
	if err := cl.WaitReady(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker after refused join: %v", err)
	}
}

func TestWorkerRefusedJoinReportsReason(t *testing.T) {
	leakcheck.Check(t)
	// A "coordinator" that always refuses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrame(conn, DefaultMaxFrame)
		conn.Write(appendFrame(nil, fGoodbye, appendGoodbye(nil, "fleet is full")))
	}()
	err = NewWorker(WorkerConfig{}).Run(ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "fleet is full") {
		t.Fatalf("err = %v", err)
	}
}

func TestCleanShutdown(t *testing.T) {
	leakcheck.Check(t)
	f := startFleet(t, 2, 1, nil, map[string]core.BoxFunc{"double": doubler})
	for i := 0; i < 4; i++ {
		node := 1 + i%2
		if _, _, _, err := f.cl.ExecBox(node, nil, "double",
			record.Build().F("x", i).Rec(), false, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.cl.Close(); err != nil {
		t.Fatal(err)
	}
	f.wg.Wait()
	// GOODBYE means a nil worker exit — connection loss would error.
	for i, err := range f.errs {
		if err != nil {
			t.Fatalf("worker %d exit: %v", i, err)
		}
	}
}

func TestExtensionValuesCrossTheWire(t *testing.T) {
	leakcheck.Check(t)
	type payload struct{ A, B byte }
	mkExt := func() *ExtTable {
		ext := NewExtTable()
		RegisterExt(ext, "test.payload",
			func(p payload) ([]byte, error) { return []byte{p.A, p.B}, nil },
			func(d []byte) (payload, error) { return payload{d[0], d[1]}, nil })
		return ext
	}
	boxes := map[string]core.BoxFunc{
		"swap": func(c *core.BoxCall) error {
			p := c.Field("p").(payload)
			c.Emit(c.NewRecord().SetField("p", payload{p.B, p.A}))
			return nil
		},
	}
	// Distinct table instances per endpoint, same registrations — exactly
	// the two-process situation.
	cl, err := Listen("127.0.0.1:0", CoordinatorConfig{Workers: 1, CPUsPerNode: 1, Ext: mkExt()})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Ext: mkExt()})
	for name, fn := range boxes {
		w.Register(name, fn)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(cl.Addr().String()) }()
	if err := cl.WaitReady(); err != nil {
		t.Fatal(err)
	}
	outs, remote, ok, err := cl.ExecBox(1, nil, "swap",
		record.New().SetField("p", payload{1, 2}), false, func() {})
	if err != nil || !ok || !remote || len(outs) != 1 {
		t.Fatalf("remote=%v ok=%v outs=%v err=%v", remote, ok, outs, err)
	}
	if v, _ := outs[0].Field("p"); v != (payload{2, 1}) {
		t.Fatalf("p = %v", v)
	}
	cl.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
