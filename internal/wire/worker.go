// The worker side of the transport: wire.Worker, the engine inside a
// cmd/snetd process. A worker owns no scheduling policy — the coordinator's
// model granted a slot before any EXEC frame was sent — it just runs box
// bodies against its registered table, gated on its own slot count so a
// worker shared between clusters can never be oversubscribed. The
// coordinator's model counts the slots it grants, so a worker reports
// nothing but its results.
//
// Workers are the expendable half of the fault model: a worker that loses
// its coordinator reconnects with jittered exponential backoff (RunLoop)
// and presents its old node id in HELLO, so the coordinator can reset the
// link's codecs and return the node to service without disturbing the
// running network.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/record"
)

// WorkerConfig shapes a worker process.
type WorkerConfig struct {
	// Ext is the application's value-extension table; it must register
	// the same names as the coordinator's.
	Ext *ExtTable
	// MaxFrame bounds a single frame; zero means DefaultMaxFrame.
	MaxFrame int
	// AdvertiseCPUs is the capability reported in HELLO (informational;
	// the WELCOME's slot count governs the gate). Zero means GOMAXPROCS.
	AdvertiseCPUs int
	// ReconnectBase is RunLoop's initial backoff delay, doubling per
	// consecutive failed attempt (capped at 32×base) with ±50% jitter so
	// a restarted fleet does not stampede the coordinator. Zero means
	// 250ms.
	ReconnectBase time.Duration
	// Dial overrides how Run reaches the coordinator; tests use it to
	// route the connection through a fault injector
	// (internal/faultwire). Nil means net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
	// Logf, when set, receives one-line progress messages (joins, exec
	// counts at shutdown). Nil is silent.
	Logf func(format string, args ...any)
	// Clock overrides the worker's time source and timer construction;
	// tests use it to drive the pinger, liveness stamps, and reconnect
	// backoff with synthetic time. The zero value reads real time.
	Clock Clock
}

// ErrRetriesExhausted wraps the final connection error when RunLoop gives
// up: the coordinator stayed unreachable through the whole retry budget.
// cmd/snetd maps it to a distinct exit code so supervisors can tell
// "coordinator vanished" from a clean shutdown.
var ErrRetriesExhausted = errors.New("wire: reconnect attempts exhausted")

// Worker executes box calls on behalf of a coordinator. Register every box
// body before Run; Run dials, joins, and blocks serving EXEC frames until
// the coordinator says GOODBYE (nil return) or the connection breaks —
// RunLoop adds the reconnect policy on top.
type Worker struct {
	cfg   WorkerConfig
	boxes map[string]core.BoxFunc

	node  int // assigned in WELCOME; presented as the rejoin id afterwards
	nodes int
	slots int
	gate  *dist.Cluster // 1 node × slots: the local execution gate

	conn net.Conn
	enc  *dist.Codec // worker → coordinator
	dec  *dist.Codec // coordinator → worker

	// Heartbeat parameters from WELCOME: the worker bounds its reads with
	// the liveness timeout and probes a silent coordinator, mirroring the
	// coordinator's policy toward it.
	heartbeat time.Duration
	liveness  time.Duration
	lastRecv  atomic.Int64 // UnixNano of the last received frame

	joined bool // this Run reached WELCOME (resets RunLoop's budget)

	wmu    sync.Mutex
	wbuf   []byte
	hdrBuf []byte

	execs  atomic.Int64
	execWG sync.WaitGroup
}

// NewWorker returns a worker with an empty box table.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, boxes: make(map[string]core.BoxFunc)}
}

// Register adds a box body under the name the coordinator's network uses.
// All registrations must happen before Run.
func (w *Worker) Register(name string, fn core.BoxFunc) {
	w.boxes[name] = fn
}

// Node returns the node id assigned in WELCOME (valid once Run has
// joined; primarily for log lines).
func (w *Worker) Node() int { return w.node }

// Execs returns how many box calls this worker has completed, across all
// connections it has held.
func (w *Worker) Execs() int64 { return w.execs.Load() }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *Worker) maxFrame() int {
	if w.cfg.MaxFrame > 0 {
		return w.cfg.MaxFrame
	}
	return DefaultMaxFrame
}

func (w *Worker) dial(addr string) (net.Conn, error) {
	if w.cfg.Dial != nil {
		return w.cfg.Dial(addr)
	}
	return net.Dial("tcp", addr)
}

// RunLoop is Run wrapped in the reconnect policy: a lost connection is
// redialed with jittered exponential backoff, presenting the worker's
// node id for a rejoin. maxRetries bounds CONSECUTIVE failed attempts —
// any connection that reaches WELCOME refills the budget, so a worker
// that flaps daily retries forever while a vanished coordinator exhausts
// the budget promptly. Returns nil on GOODBYE (orderly shutdown) or an
// error wrapping ErrRetriesExhausted.
func (w *Worker) RunLoop(addr string, maxRetries int) error {
	failures := 0
	for {
		err := w.Run(addr)
		if err == nil {
			return nil
		}
		if w.joined {
			failures = 0
			w.joined = false
		}
		if failures >= maxRetries {
			return fmt.Errorf("%w: coordinator at %s unreachable after %d consecutive attempts: %v",
				ErrRetriesExhausted, addr, failures+1, err)
		}
		failures++
		delay := w.backoff(failures)
		w.logf("connection lost (%v); reconnect attempt %d/%d in %v", err, failures, maxRetries, delay)
		<-w.cfg.Clock.NewTimer(delay).C
	}
}

// backoff is the delay before the n-th consecutive failed attempt:
// base×2^(n-1) capped at 32×base, jittered uniformly over [½d, 1½d].
func (w *Worker) backoff(failure int) time.Duration {
	base := w.cfg.ReconnectBase
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	shift := failure - 1
	if shift > 5 {
		shift = 5
	}
	d := base << shift
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// Run dials the coordinator, joins with HELLO, and serves box calls until
// GOODBYE (nil) or a connection/protocol failure (error). It blocks for
// the life of the connection. A worker that has joined before presents
// its node id (a RE-HELLO), asking for its old slot back.
func (w *Worker) Run(addr string) error {
	w.joined = false
	conn, err := w.dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	w.conn = conn
	w.enc, w.dec = dist.NewCodec(), dist.NewCodec()
	if w.cfg.Ext != nil {
		w.enc.SetValueCodec(w.cfg.Ext)
		w.dec.SetValueCodec(w.cfg.Ext)
	}
	br := bufio.NewReaderSize(conn, 64<<10)

	cpus := w.cfg.AdvertiseCPUs
	if cpus <= 0 {
		cpus = runtime.GOMAXPROCS(0)
	}
	names := make([]string, 0, len(w.boxes))
	for n := range w.boxes {
		names = append(names, n)
	}
	sort.Strings(names)
	rejoin := w.node
	if err := w.write(fHello, appendHello(nil, cpus, rejoin, names)); err != nil {
		return fmt.Errorf("wire: sending HELLO: %w", err)
	}

	typ, payload, err := readFrame(br, w.maxFrame())
	if err != nil {
		return fmt.Errorf("wire: waiting for WELCOME: %w", err)
	}
	switch typ {
	case fWelcome:
	case fGoodbye:
		reason, _ := parseGoodbye(payload)
		return fmt.Errorf("wire: coordinator refused join: %s", reason)
	default:
		return fmt.Errorf("wire: frame type %d before WELCOME", typ)
	}
	wm, err := parseWelcome(payload)
	if err != nil {
		return err
	}
	if wm.version != protoVersion {
		return fmt.Errorf("wire: coordinator speaks protocol version %d, this worker speaks %d",
			wm.version, protoVersion)
	}
	w.node, w.nodes, w.slots = wm.node, wm.nodes, wm.slots
	w.heartbeat, w.liveness = wm.heartbeat, wm.liveness
	if w.slots < 1 {
		w.slots = 1
	}
	w.gate = dist.NewCluster(1, w.slots)
	w.joined = true
	w.lastRecv.Store(w.cfg.Clock.Now().UnixNano())
	if rejoin > 0 {
		w.logf("rejoined as node %d of %d (%d slots, boxes %v)", w.node, w.nodes, w.slots, names)
	} else {
		w.logf("joined as node %d of %d (%d slots, boxes %v)", w.node, w.nodes, w.slots, names)
	}
	if w.heartbeat > 0 && w.liveness > 0 {
		pingerDone := make(chan struct{})
		pingerExited := make(chan struct{})
		go func() {
			defer close(pingerExited)
			w.pinger(pingerDone, w.heartbeat)
		}()
		// Join the pinger before returning: a reconnecting Run rewrites
		// the connection fields this goroutine touches.
		defer func() {
			close(pingerDone)
			<-pingerExited
		}()
	}

	var loopErr error
	goodbye := false
	for loopErr == nil && !goodbye {
		if w.liveness > 0 {
			//lint:reason conn deadlines are compared against real time by the kernel, never against the injected clock
			conn.SetReadDeadline(time.Now().Add(w.liveness))
		}
		typ, payload, err := readFrame(br, w.maxFrame())
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("wire: coordinator silent past the %v liveness timeout", w.liveness)
			}
			loopErr = err
			break
		}
		w.lastRecv.Store(w.cfg.Clock.Now().UnixNano())
		switch typ {
		case fExec, fStealGrant:
			e, err := parseExec(payload)
			if err != nil {
				loopErr = err
				break
			}
			// Decode inline, before spawning: the reader is the only
			// decoder, so label definitions are consumed in the order the
			// coordinator's encoder emitted them.
			in, err := w.dec.Unmarshal(e.rec)
			if err != nil {
				loopErr = fmt.Errorf("wire: decoding EXEC %d input: %w", e.req, err)
				break
			}
			w.execWG.Add(1)
			go w.execute(e.req, e.box, in)
		case fBatch:
			b, err := parseBatch(payload)
			if err != nil {
				loopErr = err
				break
			}
			// Mirrored stream hops end their journey here: decoding keeps
			// this link's label table in step with the coordinator's
			// encoder (and makes the traffic real); the records themselves
			// are owned by the coordinator-resident network.
			if _, err := w.dec.UnmarshalBatch(b.batch); err != nil {
				loopErr = fmt.Errorf("wire: decoding RECORD-BATCH: %w", err)
			}
		case fPing:
			// Answered from the reader, so a worker whose every slot is
			// busy inside long box executions still proves liveness.
			w.write(fPong)
		case fPong:
			// Nothing beyond the lastRecv refresh above.
		case fGoodbye:
			goodbye = true
		default:
			loopErr = fmt.Errorf("wire: unexpected frame type %d", typ)
		}
	}
	// Let in-flight executions finish and their results flush — on
	// GOODBYE the coordinator keeps reading until our ack.
	w.execWG.Wait()
	if goodbye {
		w.wmu.Lock()
		g := appendGoodbye(w.hdrBuf[:0], "worker done")
		w.hdrBuf = g
		w.writeLocked(fGoodbye, g)
		w.wmu.Unlock()
		w.logf("left after %d executions", w.execs.Load())
		return nil
	}
	return loopErr
}

// pinger probes a receive-idle link from the worker side, mirroring the
// coordinator's sweep: the PONGs it provokes are what keep the worker's
// read deadline honest on a link that is healthy but quiet (the
// coordinator only probes when IT is not hearing from the worker, which
// is not quite the same condition). Exits with the Run that started it.
func (w *Worker) pinger(done chan struct{}, interval time.Duration) {
	t := w.cfg.Clock.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			idle := w.cfg.Clock.Since(time.Unix(0, w.lastRecv.Load()))
			if idle >= interval {
				w.write(fPing)
			}
		}
	}
}

// execute runs one box call on a gate slot and sends its RESULT.
func (w *Worker) execute(req uint64, box string, in *record.Record) {
	defer w.execWG.Done()
	fn, found := w.boxes[box]
	if !found {
		w.sendResult(req, nil, fmt.Errorf("box %q is not registered on worker node %d", box, w.node))
		return
	}
	var outs []*record.Record
	var boxErr error
	w.gate.Exec(0, func() {
		outs, boxErr = core.CallBox(fn, in)
	})
	w.execs.Add(1)
	w.sendResult(req, outs, boxErr)
}

// sendResult marshals the emissions and writes the RESULT frame under one
// lock, pinning this link's codec negotiation order to the wire order. A
// batch that cannot be marshalled (an emission outside the extension
// table) degrades to a box error with an empty batch — MarshalBatch
// validates before negotiating, so the codec state is untouched.
func (w *Worker) sendResult(req uint64, outs []*record.Record, boxErr error) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	batch, err := w.enc.MarshalBatch(outs)
	if err != nil {
		if boxErr == nil {
			boxErr = err
		} else {
			boxErr = fmt.Errorf("%v (and emissions were unserializable: %v)", boxErr, err)
		}
		outs = nil
		batch, _ = w.enc.MarshalBatch(nil)
	}
	status, errmsg := statusOK, ""
	if boxErr != nil {
		status, errmsg = statusErr, boxErr.Error()
	}
	hdr := appendResultHeader(w.hdrBuf[:0], req, status, errmsg)
	w.hdrBuf = hdr
	w.writeLocked(fResult, hdr, batch)
}

// write sends one frame, taking the write lock.
func (w *Worker) write(typ byte, parts ...[]byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.writeLocked(typ, parts...)
}

// writeLocked sends one frame; callers hold wmu. Writes are bounded by
// the liveness timeout (once known) so a blackholed link cannot wedge a
// writer behind a full TCP buffer.
func (w *Worker) writeLocked(typ byte, parts ...[]byte) error {
	buf := appendFrame(w.wbuf[:0], typ, parts...)
	w.wbuf = buf
	if w.liveness > 0 {
		//lint:reason conn deadlines are compared against real time by the kernel, never against the injected clock
		w.conn.SetWriteDeadline(time.Now().Add(w.liveness))
	}
	_, err := w.conn.Write(buf)
	return err
}
