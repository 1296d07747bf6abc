// True multi-process tests: the test binary re-executes itself as snetd
// worker processes (TestMain intercepts the child role before the test
// runner starts), so coordinator and workers are separate OS processes
// joined by real sockets — under -race on both sides.
package wireapp

import (
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"snet/internal/leakcheck"
	"snet/internal/snetray"
	"snet/internal/wire"
)

// testSpec must be identical in parent and child: the scene extension
// verifies it across the socket.
var testSpec = SceneSpec{Unbalanced: true, Objects: 40, Seed: 7}

const testFuseDelay = 30 * time.Millisecond

func TestMain(m *testing.M) {
	if app := os.Getenv("SNET_WIRE_WORKER"); app != "" {
		runWorkerProcess(app, os.Getenv("SNET_WIRE_ADDR"))
		return
	}
	os.Exit(m.Run())
}

func runWorkerProcess(app, addr string) {
	w := wire.NewWorker(wire.WorkerConfig{Ext: RaytraceExt(testSpec)})
	switch app {
	case "pipeline":
		for name, fn := range PipelineWorkerBoxes(testFuseDelay) {
			w.Register(name, fn)
		}
	case "raytrace":
		for name, fn := range snetray.WorkerBoxes(0) {
			w.Register(name, fn)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown worker app %q\n", app)
		os.Exit(2)
	}
	if err := w.Run(addr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnWorker re-executes the test binary as a worker process and returns
// a wait function delivering its exit error (nil = clean GOODBYE exit).
// The wait function may be called any number of times.
func spawnWorker(t *testing.T, app, addr string) func() error {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SNET_WIRE_WORKER="+app, "SNET_WIRE_ADDR="+addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	done := make(chan struct{})
	go func() {
		exitErr = cmd.Wait()
		close(done)
	}()
	t.Cleanup(func() {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Error("worker process had to be killed")
		}
	})
	return func() error {
		<-done
		return exitErr
	}
}

// TestThreeProcessPipelineSteals is the acceptance scenario: the pipeline
// S-Net program, unmodified, across 1 coordinator + 2 worker processes,
// with at least one dispatch-time steal observed in Stats.Steals.
func TestThreeProcessPipelineSteals(t *testing.T) {
	leakcheck.Check(t)
	cl, err := wire.Listen("127.0.0.1:0", wire.CoordinatorConfig{
		Workers: 2, CPUsPerNode: 1, Ext: RaytraceExt(testSpec), JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w1 := spawnWorker(t, "pipeline", cl.Addr().String())
	w2 := spawnWorker(t, "pipeline", cl.Addr().String())
	if err := cl.WaitReady(); err != nil {
		t.Fatal(err)
	}
	const seqs = 8
	res, err := RunPipeline(cl, seqs, testFuseDelay)
	if err != nil {
		t.Fatal(err)
	}
	if res.Readings != seqs || res.Sum != ExpectedPipelineSum(seqs) {
		t.Fatalf("readings=%d sum=%d, want %d/%d", res.Readings, res.Sum, seqs, ExpectedPipelineSum(seqs))
	}
	// Every fuse execution was homed on node 1 with one slot; 8 overlapping
	// 30ms executions cannot all fit there, so the model must have stolen.
	if res.Stats.Steals < 1 {
		t.Fatalf("Stats.Steals = %d, want >= 1", res.Stats.Steals)
	}
	ws := cl.WireStats()
	if ws.RemoteExecs < 1 {
		t.Fatalf("no execution crossed a process boundary: %+v", ws)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w1(); err != nil {
		t.Fatalf("worker 1 exit: %v", err)
	}
	if err := w2(); err != nil {
		t.Fatalf("worker 2 exit: %v", err)
	}
}

// TestTwoProcessRaytracePixelIdentical renders the same scene twice — once
// in-process, once with the solver across a real socket in another OS
// process — and requires the images to be byte-identical.
func TestTwoProcessRaytracePixelIdentical(t *testing.T) {
	leakcheck.Check(t)
	cl, err := wire.Listen("127.0.0.1:0", wire.CoordinatorConfig{
		Workers: 1, CPUsPerNode: 2, Ext: RaytraceExt(testSpec), JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	wdone := spawnWorker(t, "raytrace", cl.Addr().String())
	if err := cl.WaitReady(); err != nil {
		t.Fatal(err)
	}
	cfg := snetray.Config{
		Scene: testSpec.Build(), W: 80, H: 60,
		Nodes: 2, CPUs: 2, Tasks: 6,
		Mode: snetray.DynamicSteal,
	}
	distCfg := cfg
	distCfg.Platform = cl
	got, err := snetray.Render(distCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := snetray.Render(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Image.Equal(want.Image) {
		t.Fatal("distributed render differs from in-process render")
	}
	ws := cl.WireStats()
	if ws.RemoteExecs < 1 {
		t.Fatalf("no solver execution crossed the socket: %+v", ws)
	}
	if ws.BytesRecv == 0 {
		t.Fatalf("no pixel bytes came back over the wire: %+v", ws)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wdone(); err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestPipelineInProcessMatchesWire runs the identical program on a plain
// dist.Cluster — the "same program, different platform" half of the claim
// the wire tests exercise, and the reference the benchmark's wire_pipeline
// workload checks its results against.
func TestPipelineInProcessMatchesWire(t *testing.T) {
	leakcheck.Check(t)
	res, err := RunPipeline(newLocalCluster(3, 1), 8, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Readings != 8 || res.Sum != ExpectedPipelineSum(8) {
		t.Fatalf("readings=%d sum=%d", res.Readings, res.Sum)
	}
}
