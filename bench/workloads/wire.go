package workloads

import (
	"fmt"
	"sync"
	"time"

	"snet/internal/dist"
	"snet/internal/wire"
	"snet/internal/wireapp"
)

// Shape of wire_pipeline: the sensor-fusion pipeline of internal/wireapp
// with WireSeqs sequences, no modelled compute, on a coordinator plus two
// workers of wireCPUs slots each.
const (
	WireSeqs    = 64
	wireWorkers = 2
	wireCPUs    = 2
)

type wireSession struct {
	cl       *wire.Cluster
	workers  sync.WaitGroup
	want     *wireapp.PipelineResult // the same program on an in-process dist.Cluster
	lastWire wire.WireStats
	lastDist dist.Stats
}

// setupWirePipeline brings up the fleet of bench_test.go's startWireFleet:
// a coordinator and two wire.Workers joined over loopback TCP. The workers
// are goroutines of this process — sockets, frames and codec negotiation
// are the production path, only the OS process boundary is folded away —
// and the fleet persists across ops.
func setupWirePipeline(cfg *Config) (Session, error) {
	s := &wireSession{}
	span := cfg.Trace.Begin("dist.new_cluster", 0, 0)
	ref := dist.NewCluster(wireWorkers+1, wireCPUs)
	span.End()
	want, err := wireapp.RunPipeline(ref, WireSeqs, 0)
	if err != nil {
		return nil, fmt.Errorf("reference run on dist.Cluster: %w", err)
	}
	if want.Readings != WireSeqs || want.Sum != wireapp.ExpectedPipelineSum(WireSeqs) {
		return nil, fmt.Errorf("reference run on dist.Cluster: %d readings, sum %d; want %d, %d",
			want.Readings, want.Sum, WireSeqs, wireapp.ExpectedPipelineSum(WireSeqs))
	}
	s.want = want

	span = cfg.Trace.Begin("wire.listen_ready", 0, 0)
	defer span.End()
	cl, err := wire.Listen("127.0.0.1:0", wire.CoordinatorConfig{Workers: wireWorkers, CPUsPerNode: wireCPUs})
	if err != nil {
		return nil, err
	}
	s.cl = cl
	for i := 0; i < wireWorkers; i++ {
		w := wire.NewWorker(wire.WorkerConfig{})
		for name, fn := range wireapp.PipelineWorkerBoxes(0) {
			w.Register(name, fn)
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			// The worker returns when the coordinator closes; a worker
			// that dies early shows up as failovers, which fail the op.
			_ = w.Run(cl.Addr().String())
		}()
	}
	if err := cl.WaitReady(); err != nil {
		cl.Close()
		s.workers.Wait()
		return nil, err
	}
	s.lastWire, s.lastDist = cl.WireStats(), cl.Stats()
	return s, nil
}

// wireGroup is how many ops share one reading of the CPU and allocation
// counters: an op takes under a millisecond, the reading stops the world.
const wireGroup = 64

// Slice runs the pipeline over the fleet, one call after another, until d
// has passed. One op is one RunPipeline call: WireSeqs fuse executions,
// shipped to a worker or stolen by the coordinator's own node.
func (s *wireSession) Slice(d time.Duration, m *Meter) error {
	deadline := time.Now().Add(d)
	var err error
	for first := true; err == nil && (first || time.Now().Before(deadline)); first = false {
		m.Main(func() int {
			good := 0
			for k := 0; err == nil && k < wireGroup && (k == 0 || time.Now().Before(deadline)); k++ {
				var ok bool
				if ok, err = s.op(m); ok {
					good++
				}
			}
			return good
		})
	}
	return err
}

// op makes one RunPipeline call and checks it against the in-process run.
func (s *wireSession) op(m *Meter) (bool, error) {
	op := m.NextOp()
	span := m.Trace.Begin("wireapp.run_pipeline", op, 0)
	t0 := time.Now()
	res, err := wireapp.RunPipeline(s.cl, WireSeqs, 0)
	took := time.Since(t0)
	span.End()
	m.Op(took)
	ws := s.cl.WireStats()
	failovers := ws.Failovers - s.lastWire.Failovers
	good := err == nil && res.Readings == s.want.Readings && res.Sum == s.want.Sum && failovers == 0
	bad := 0
	if !good {
		bad = 1
	}
	m.Checked(1, bad, fmt.Sprintf("wire op %d: err=%v result=%+v want=%+v failovers=%d", op, err, res, s.want, failovers))
	if err != nil {
		return false, fmt.Errorf("wire_pipeline: %w", err)
	}
	ds := res.Stats
	m.Count("wire.remote_execs", float64(ws.RemoteExecs-s.lastWire.RemoteExecs))
	m.Count("wire.retries", float64(ws.Retries-s.lastWire.Retries))
	m.Count("wire.failovers", float64(failovers))
	m.Count("_wire_bytes", float64(ws.BytesSent-s.lastWire.BytesSent+ws.BytesRecv-s.lastWire.BytesRecv))
	m.Count("_model_bytes", float64(ds.Bytes-s.lastDist.Bytes))
	m.Count("dist.transfers", float64(ds.Transfers-s.lastDist.Transfers))
	m.Count("dist.messages", float64(ds.Batches-s.lastDist.Batches))
	m.Count("dist.bytes", float64(ds.Bytes-s.lastDist.Bytes))
	m.Count("dist.steals", float64(ds.Steals-s.lastDist.Steals))
	m.Count("dist.migrated", float64(ds.Migrated-s.lastDist.Migrated))
	for n := range ds.Execs {
		m.Count("dist.execs", float64(ds.Execs[n]-s.lastDist.Execs[n]))
		m.Count(fmt.Sprintf("_busy_ms.%d", n), ms(ds.Busy[n]-s.lastDist.Busy[n]))
	}
	m.Count("_slot_ms", ms(took)*float64(len(ds.Execs)*wireCPUs))
	s.lastWire, s.lastDist = ws, ds
	if op%wireGroup == 0 {
		m.Snap("wireapp.run_pipeline", "wire.remote_execs", "dist.steals")
	}
	return good, nil
}

func (s *wireSession) Close(*Meter) error {
	err := s.cl.Close()
	s.workers.Wait()
	return err
}
