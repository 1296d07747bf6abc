// The coordinator side of the transport: wire.Cluster, a core.Platform
// whose CPU slots live partly in other OS processes. Scheduling stays in
// the embedded dist.Cluster model — identical queues, stealing, and Stats
// to the in-process platform — and the transport's job is purely to route
// a granted execution to the process that owns the granted slot, and to
// mirror cross-node stream traffic onto the sockets so the model's byte
// accounting corresponds to bytes that actually moved.
//
// The transport is fault-tolerant: a worker that hangs is detected by
// heartbeat (health.go), a worker that dies has its pending calls failed
// over to local slots, a worker that misbehaves repeatedly is quarantined
// out of placement until a probe readmits it, and a worker that comes
// back — same process reconnecting, or a fresh replacement — rejoins
// under its old node id with the link codecs reset. The S-Net program
// above never observes any of this except through WireStats.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snet/internal/dist"
	"snet/internal/journal"
	"snet/internal/record"
)

// CoordinatorConfig shapes a coordinator. Workers is the exact number of
// snetd processes expected to join; the cluster has Workers+1 nodes (node
// 0 is the coordinator process itself, so boxes placed there — sources,
// mergers, sinks — run in-process without a hop).
type CoordinatorConfig struct {
	// Workers is the number of worker processes that must join before
	// WaitReady returns. Required, >= 1.
	Workers int
	// CPUsPerNode is the CPU slots per node, the model's uniform slot
	// count; each worker is told its slot count in WELCOME and gates its
	// executions on it. Zero means 1.
	CPUsPerNode int
	// Ext is the application's value-extension table (shared by every
	// link codec); nil restricts record fields to built-in scalars.
	Ext *ExtTable
	// MaxFrame bounds a single frame; zero means DefaultMaxFrame.
	MaxFrame int
	// JoinTimeout bounds how long WaitReady waits for all workers to
	// join; zero means 30s. Joins (and rejoins) are still accepted after
	// the window closes — the timeout only settles WaitReady.
	JoinTimeout time.Duration
	// HandshakeTimeout bounds the HELLO/WELCOME exchange on one fresh
	// connection, so a stray connection that never says HELLO cannot pin
	// a handshake goroutine. Zero defaults to JoinTimeout.
	HandshakeTimeout time.Duration
	// HeartbeatInterval is how often the coordinator checks each link and
	// PINGs the ones it has not heard from. Zero means 1s.
	HeartbeatInterval time.Duration
	// LivenessTimeout is how long a link may stay silent — no RESULT, no
	// PING, no PONG — before its worker is declared dead, pending calls
	// fail over to local slots, and the node waits for a rejoin. It must
	// exceed HeartbeatInterval with margin; zero means 4×HeartbeatInterval.
	LivenessTimeout time.Duration
	// CallTimeout bounds one remote box call (EXEC sent → RESULT
	// received). A call past its deadline is abandoned: retried while the
	// retry budget lasts, then failed over to local execution on the
	// already-granted slot. Zero disables per-call deadlines — the right
	// default when box runtimes are unbounded (a deadline shorter than an
	// honest execution wastes the remote work and double-executes).
	CallTimeout time.Duration
	// CallRetries is how many times a timed-out or send-failed call is
	// re-sent before failing over. Zero means 1; negative means none.
	CallRetries int
	// FaultLimit quarantines a node after this many faults (call
	// timeouts, send failures, unclean disconnects) inside FaultWindow.
	// Zero means 3.
	FaultLimit int
	// FaultWindow is the sliding window for FaultLimit. Zero means 30s.
	FaultWindow time.Duration
	// QuarantineCooldown is how long a quarantined node sits excluded
	// before the sweep probes it back in. Zero means 5s.
	QuarantineCooldown time.Duration
	// JournalDir, when set, opens an exec journal in that directory:
	// every remote box dispatch is journaled (box name + input record)
	// before its EXEC frame ships and acknowledged when the call
	// completes — by a RESULT, or by local failover. After a coordinator
	// crash, the next coordinator opening the same directory finds the
	// orphans (dispatched, never completed) in Orphans and re-runs them
	// with RedriveOrphans. Calls that run locally from the start are not
	// journaled here — the runtime's ingress journal (core.Durability)
	// covers in-process loss. The journal syncs on every append: a
	// dispatch is already a network round trip, so the write is
	// proportionate, and an unsynced dispatch is exactly the loss the
	// journal exists to prevent.
	JournalDir string
	// JournalFS overrides the exec journal's filesystem (fault injection
	// in tests); when set, JournalDir may be empty.
	JournalFS journal.FS
	// Logf, when set, receives one-line lifecycle messages (joins,
	// deaths, rejoins, quarantines). Nil is silent.
	Logf func(format string, args ...any)

	// Clock overrides the cluster's time source and timer construction;
	// tests use it to drive heartbeat, quarantine, and call-deadline
	// decisions with synthetic time. The zero value reads real time.
	Clock Clock
}

// WireStats are the transport-level counters of a coordinator — the
// measured reality next to the model's Stats accounting. Byte counters
// include frame overhead (length prefix and type byte) and cover both
// directions of every worker connection, as seen from the coordinator.
type WireStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	// RemoteExecs counts box calls that executed in a worker process;
	// LocalExecs ran on the coordinator (node 0's slots, unregistered
	// boxes, non-serializable inputs, or failover after a peer died).
	RemoteExecs, LocalExecs int64
	// StolenExecs counts remote executions dispatched as STEAL-GRANT
	// frames: the model migrated them from their home node to the thief
	// that received them.
	StolenExecs int64
	// Failovers counts remote dispatches abandoned — the peer died or the
	// call ran out of deadline retries — and re-run locally on the
	// already-granted slot (boxes are stateless and the lost emissions
	// never entered the stream, so the re-run is safe).
	Failovers int64
	// Timeouts counts call attempts abandoned at CallTimeout; Retries
	// counts the re-sends those (and send failures) triggered. One box
	// call can contribute several of each before a single Failover.
	Timeouts, Retries int64
	// Rejoins counts accepted RE-HELLOs: a known node id coming back on a
	// fresh connection (the same worker reconnecting, or a replacement
	// process claiming a dead node's slot).
	Rejoins int64
	// Quarantines counts nodes entering quarantine: FaultLimit faults
	// inside FaultWindow excluded them from placement until a post-
	// cool-down probe requalified them.
	Quarantines int64
	// MirroredBatches counts cross-node stream batches shipped for real
	// as RECORD-BATCH frames; SkippedMirrors counts batches accounted by
	// the model only (records without a wire form, or a dead peer).
	MirroredBatches, SkippedMirrors int64
	// LiveWorkers is how many worker connections are currently up.
	LiveWorkers int
}

// Cluster is the coordinator's platform: a core.Platform backed by one TCP
// connection per worker. Create with Listen, wait for the fleet with
// WaitReady, hand it to the runtime via core.Options.Platform (or
// snet.Options.Platform), and Close when done — Close performs the
// orderly GOODBYE exchange and reclaims every transport goroutine.
type Cluster struct {
	cfg   CoordinatorConfig
	model *dist.Cluster
	// probe is a scratch codec carrying the extension table, used only
	// for Marshalable pre-checks (it never negotiates).
	probe *dist.Codec
	ln    net.Listener
	peers []atomic.Pointer[peer] // index node-1

	// links are the per-node codec pairs. They belong to the node id, not
	// the connection: a rejoining node reuses its pair after Reset, which
	// is what lets the new connection renegotiate labels from scratch.
	links []linkCodecs

	// Join bookkeeping: slot claims during handshakes, and the count of
	// distinct nodes that have ever joined (which settles WaitReady).
	joinMu    sync.Mutex
	slotBusy  []bool // a handshake currently holds this slot's claim
	everUp    []bool // this slot has completed a join at least once
	joined    int
	readyOnce sync.Once
	joinTimer *Timer

	// Exec journal (CoordinatorConfig.JournalDir): dispatched-but-
	// uncompleted remote calls, for orphan re-drive after a restart.
	jnl      *journal.Journal
	jnlClose sync.Once
	orphanMu sync.Mutex
	orphans  []journal.Entry

	reqSeq    atomic.Uint64
	wg        sync.WaitGroup
	ready     chan struct{}
	joinErr   error // written inside readyOnce, read after ready closes
	closed    chan struct{}
	closeOnce sync.Once

	// Per-node fault ledger (health.go; index 0 unused).
	healthMu sync.Mutex
	health   []nodeHealth

	framesOut, framesIn atomic.Int64
	bytesOut, bytesIn   atomic.Int64
	remoteExecs         atomic.Int64
	localExecs          atomic.Int64
	stolenExecs         atomic.Int64
	failovers           atomic.Int64
	timeouts            atomic.Int64
	retries             atomic.Int64
	rejoins             atomic.Int64
	quarantines         atomic.Int64
	mirroredBatches     atomic.Int64
	skippedMirrors      atomic.Int64
}

type linkCodecs struct {
	enc *dist.Codec // coordinator → worker records
	dec *dist.Codec // worker → coordinator records
}

// peer is one worker connection, coordinator-side. The node id and its
// codec pair outlive the peer (they belong to the Cluster); everything
// else dies with the connection.
type peer struct {
	c     *Cluster
	node  int
	cpus  int // advertised in HELLO (informational; WELCOME's slots govern)
	conn  net.Conn
	br    *bufio.Reader
	enc   *dist.Codec // coordinator → worker records (c.links[node-1].enc)
	dec   *dist.Codec // worker → coordinator records (c.links[node-1].dec)
	boxes map[string]bool

	wmu    sync.Mutex
	wbuf   []byte
	hdrBuf []byte
	dead   atomic.Bool

	lastRecv atomic.Int64  // UnixNano of the last received frame
	done     chan struct{} // closed when the peer's reader has unwound

	pmu     sync.Mutex
	pending map[uint64]chan execResult
}

type execResult struct {
	outs   []*record.Record
	err    error
	failed bool // peer died before a result arrived
}

var errPeerDead = errors.New("wire: worker connection lost")

// Listen starts a coordinator listening on addr (e.g. "127.0.0.1:0") and
// accepting worker joins in the background. It returns immediately so
// callers can learn Addr and launch workers; WaitReady blocks until the
// configured number of workers has joined.
func Listen(addr string, cfg CoordinatorConfig) (*Cluster, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("wire: coordinator needs at least 1 worker, got %d", cfg.Workers)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, cfg)
}

// Serve is Listen over a caller-provided listener — the seam that lets
// tests interpose a fault-injecting listener (internal/faultwire) between
// the coordinator and its workers. Serve owns ln: Close closes it.
func Serve(ln net.Listener, cfg CoordinatorConfig) (*Cluster, error) {
	if cfg.Workers < 1 {
		ln.Close()
		return nil, fmt.Errorf("wire: coordinator needs at least 1 worker, got %d", cfg.Workers)
	}
	if cfg.CPUsPerNode <= 0 {
		cfg.CPUsPerNode = 1
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 30 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = cfg.JoinTimeout
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.LivenessTimeout <= 0 {
		cfg.LivenessTimeout = 4 * cfg.HeartbeatInterval
	}
	if cfg.CallRetries == 0 {
		cfg.CallRetries = 1
	} else if cfg.CallRetries < 0 {
		cfg.CallRetries = 0
	}
	if cfg.FaultLimit <= 0 {
		cfg.FaultLimit = 3
	}
	if cfg.FaultWindow <= 0 {
		cfg.FaultWindow = 30 * time.Second
	}
	if cfg.QuarantineCooldown <= 0 {
		cfg.QuarantineCooldown = 5 * time.Second
	}
	nodes := cfg.Workers + 1
	c := &Cluster{
		cfg:      cfg,
		model:    dist.NewCluster(nodes, cfg.CPUsPerNode),
		probe:    dist.NewCodec(),
		ln:       ln,
		peers:    make([]atomic.Pointer[peer], cfg.Workers),
		links:    make([]linkCodecs, cfg.Workers),
		slotBusy: make([]bool, cfg.Workers),
		everUp:   make([]bool, cfg.Workers),
		ready:    make(chan struct{}),
		closed:   make(chan struct{}),
		health:   make([]nodeHealth, nodes),
	}
	if cfg.Ext != nil {
		c.probe.SetValueCodec(cfg.Ext)
	}
	if cfg.JournalDir != "" || cfg.JournalFS != nil {
		jcfg := journal.Config{Dir: cfg.JournalDir, FS: cfg.JournalFS, Fsync: journal.FsyncAlways}
		if cfg.Ext != nil {
			jcfg.Ext = cfg.Ext
		}
		jnl, err := journal.Open(jcfg)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("wire: exec journal: %w", err)
		}
		c.jnl = jnl
		c.orphans = jnl.Recovered()
	}
	for i := range c.links {
		c.links[i] = linkCodecs{enc: dist.NewCodec(), dec: dist.NewCodec()}
		if cfg.Ext != nil {
			c.links[i].enc.SetValueCodec(cfg.Ext)
			c.links[i].dec.SetValueCodec(cfg.Ext)
		}
	}
	c.joinTimer = cfg.Clock.AfterFunc(cfg.JoinTimeout, func() {
		c.joinMu.Lock()
		n := c.joined
		c.joinMu.Unlock()
		if n < c.cfg.Workers {
			c.finishReady(fmt.Errorf("wire: %d of %d workers joined before the %v join window closed",
				n, c.cfg.Workers, c.cfg.JoinTimeout))
		}
	})
	c.wg.Add(2)
	go c.acceptLoop()
	go c.heartbeatLoop()
	return c, nil
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Addr returns the coordinator's listen address.
func (c *Cluster) Addr() net.Addr { return c.ln.Addr() }

// WaitReady blocks until every expected worker has joined (nil), the join
// timeout passed, or the cluster was closed.
func (c *Cluster) WaitReady() error {
	<-c.ready
	return c.joinErr
}

func (c *Cluster) finishReady(err error) {
	c.readyOnce.Do(func() {
		c.joinErr = err
		close(c.ready)
	})
}

// acceptLoop admits connections for the cluster's whole lifetime: the
// fleet's initial joins, and — unlike a fixed-membership join window —
// rejoins of dead nodes and replacement workers claiming a dead node's
// slot. The listener closes only on Close.
func (c *Cluster) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// handleConn runs one connection's lifetime: handshake, then serve.
func (c *Cluster) handleConn(conn net.Conn) {
	defer c.wg.Done()
	p, err := c.admit(conn)
	if err != nil {
		conn.Close()
		c.logf("wire: join failed: %v", err)
		return
	}
	c.serve(p)
}

// assignNode picks the node id a fresh connection will hold. want is the
// HELLO's rejoin field: 0 asks for any slot (first never-joined slot,
// else a dead node's slot as a replacement), >0 claims that node id (a
// RE-HELLO, legal only when the node is not currently connected). The
// returned claim is held until finishJoin or revertJoin.
func (c *Cluster) assignNode(want int) (node int, replace bool, err error) {
	c.joinMu.Lock()
	defer c.joinMu.Unlock()
	claim := func(i int) (int, bool) {
		c.slotBusy[i] = true
		return i + 1, c.peers[i].Load() != nil
	}
	if want != 0 {
		if want < 1 || want > len(c.peers) {
			return 0, false, fmt.Errorf("wire: rejoin as node %d: no such node (cluster has %d workers)", want, len(c.peers))
		}
		i := want - 1
		if c.slotBusy[i] {
			return 0, false, fmt.Errorf("wire: rejoin as node %d: another connection is mid-handshake for it", want)
		}
		if p := c.peers[i].Load(); p != nil && !p.dead.Load() {
			return 0, false, fmt.Errorf("wire: rejoin as node %d refused: that node is still connected", want)
		}
		node, replace = claim(i)
		return node, replace, nil
	}
	for i := range c.peers {
		if !c.slotBusy[i] && !c.everUp[i] {
			node, replace = claim(i)
			return node, replace, nil
		}
	}
	for i := range c.peers {
		if c.slotBusy[i] {
			continue
		}
		if p := c.peers[i].Load(); p != nil && p.dead.Load() {
			node, replace = claim(i)
			return node, replace, nil
		}
	}
	return 0, false, errors.New("wire: fleet is full (every node is connected)")
}

// finishJoin publishes a completed handshake: the slot claim converts to
// a live peer, and WaitReady settles when the last first-time join lands.
func (c *Cluster) finishJoin(node int, replace bool) {
	c.joinMu.Lock()
	i := node - 1
	c.slotBusy[i] = false
	first := !c.everUp[i]
	c.everUp[i] = true
	if first {
		c.joined++
	}
	complete := c.joined >= c.cfg.Workers
	c.joinMu.Unlock()
	if replace {
		c.rejoins.Add(1)
	}
	if complete {
		c.finishReady(nil)
	}
}

func (c *Cluster) revertJoin(node int) {
	c.joinMu.Lock()
	c.slotBusy[node-1] = false
	c.joinMu.Unlock()
}

// admit performs the HELLO/WELCOME handshake on a fresh connection. A
// version mismatch, malformed HELLO, or unassignable node id is answered
// with GOODBYE (when writable) and reported as an error. On a rejoin the
// node's codec pair is Reset — the new connection renegotiates every
// label from scratch — returning the node to the schedulable set with a
// clean slate.
func (c *Cluster) admit(conn net.Conn) (*peer, error) {
	//lint:reason conn deadlines are compared against real time by the kernel, never against the cluster clock
	conn.SetDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, payload, err := readFrame(br, c.cfg.MaxFrame)
	if err != nil {
		return nil, fmt.Errorf("wire: reading HELLO: %w", err)
	}
	if typ != fHello {
		return nil, fmt.Errorf("wire: first frame type %d, want HELLO", typ)
	}
	h, err := parseHello(payload)
	if err != nil {
		return nil, err
	}
	if h.version != protoVersion {
		reason := fmt.Sprintf("protocol version %d not supported; coordinator speaks version %d",
			h.version, protoVersion)
		conn.Write(appendFrame(nil, fGoodbye, appendGoodbye(nil, reason))) //lint:reason handshake rejection: no other goroutine can reach this conn yet, so there is no write order to protect
		return nil, fmt.Errorf("wire: %s", reason)
	}
	node, replace, err := c.assignNode(h.node)
	if err != nil {
		conn.Write(appendFrame(nil, fGoodbye, appendGoodbye(nil, err.Error()))) //lint:reason handshake rejection: no other goroutine can reach this conn yet, so there is no write order to protect
		return nil, err
	}
	if old := c.peers[node-1].Load(); old != nil {
		// Wait for the dead predecessor's reader to unwind so its final
		// decodes cannot interleave with the codec Reset below.
		t := c.cfg.Clock.NewTimer(c.cfg.HandshakeTimeout)
		select {
		case <-old.done:
			t.Stop()
		case <-t.C:
			c.revertJoin(node)
			return nil, fmt.Errorf("wire: node %d rejoin: previous connection still draining", node)
		}
		c.links[node-1].enc.Reset()
		c.links[node-1].dec.Reset()
	}
	p := &peer{
		c:       c,
		node:    node,
		cpus:    h.cpus,
		conn:    conn,
		br:      br,
		enc:     c.links[node-1].enc,
		dec:     c.links[node-1].dec,
		boxes:   make(map[string]bool, len(h.boxes)),
		done:    make(chan struct{}),
		pending: make(map[uint64]chan execResult),
	}
	for _, b := range h.boxes {
		p.boxes[b] = true
	}
	p.lastRecv.Store(c.now().UnixNano())
	p.wmu.Lock()
	err = p.writeLocked(fWelcome, appendWelcome(nil, node, c.model.Nodes(), c.cfg.CPUsPerNode,
		c.cfg.HeartbeatInterval, c.cfg.LivenessTimeout))
	p.wmu.Unlock()
	if err != nil {
		c.revertJoin(node)
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	c.peers[node-1].Store(p)
	c.finishJoin(node, replace)
	if replace {
		c.logf("wire: node %d rejoined (%d cpus advertised)", node, h.cpus)
	} else {
		c.logf("wire: node %d joined (%d cpus advertised)", node, h.cpus)
	}
	return p, nil
}

// serve is a worker connection's reader: it decodes RESULT batches in
// arrival order (pinning the codec negotiation order), answers PINGs, and
// on any error — or the GOODBYE
// ack — tears the peer down, failing every pending EXEC so no box call
// waits on a dead socket. Every received frame refreshes the peer's
// liveness and, after a quarantine cool-down, requalifies the node.
func (c *Cluster) serve(p *peer) {
	clean := false
	defer func() {
		p.dead.Store(true)
		p.conn.Close()
		p.failPending()
		close(p.done)
		select {
		case <-c.closed:
			// Shutdown: connection teardown is expected, not a fault.
		default:
			if !clean {
				c.fault(p.node, c.now())
				c.logf("wire: node %d connection lost", p.node)
			}
		}
	}()
	for {
		typ, payload, err := readFrame(p.br, c.cfg.MaxFrame)
		if err != nil {
			return
		}
		now := c.now()
		p.lastRecv.Store(now.UnixNano())
		c.maybeRequalify(p.node, now)
		c.framesIn.Add(1)
		c.bytesIn.Add(frameLen(len(payload)))
		switch typ {
		case fResult:
			res, err := parseResult(payload)
			if err != nil {
				return
			}
			outs, err := p.dec.UnmarshalBatch(res.batch)
			if err != nil {
				// Codec desync: nothing after this frame can be trusted.
				return
			}
			var boxErr error
			if res.status != statusOK {
				boxErr = errors.New(res.errmsg)
			}
			p.complete(res.req, execResult{outs: outs, err: boxErr})
		case fPing:
			p.sendPong()
		case fPong:
			// Nothing beyond the liveness refresh above.
		case fGoodbye:
			clean = true
			return
		default:
			return
		}
	}
}

// writeLocked sends one frame; callers hold p.wmu. Writes are bounded by
// the liveness timeout so a peer whose TCP buffer has filled (a hung
// reader) cannot wedge the writer — the deadline expiry marks the peer
// dead and the reader unwinds it. A write failure marks the peer dead
// the same way.
func (p *peer) writeLocked(typ byte, parts ...[]byte) error {
	buf := appendFrame(p.wbuf[:0], typ, parts...)
	p.wbuf = buf
	if lt := p.c.cfg.LivenessTimeout; lt > 0 {
		//lint:reason conn deadlines are compared against real time by the kernel, never against the cluster clock
		p.conn.SetWriteDeadline(time.Now().Add(lt))
	}
	if _, err := p.conn.Write(buf); err != nil {
		p.dead.Store(true)
		return err
	}
	p.c.framesOut.Add(1)
	p.c.bytesOut.Add(int64(len(buf)))
	return nil
}

func (p *peer) addPending(req uint64, ch chan execResult) {
	p.pmu.Lock()
	p.pending[req] = ch
	p.pmu.Unlock()
}

func (p *peer) dropPending(req uint64) {
	p.pmu.Lock()
	delete(p.pending, req)
	p.pmu.Unlock()
}

func (p *peer) complete(req uint64, res execResult) {
	p.pmu.Lock()
	ch, ok := p.pending[req]
	delete(p.pending, req)
	p.pmu.Unlock()
	if ok {
		ch <- res // buffered; never blocks
	}
}

func (p *peer) failPending() {
	p.pmu.Lock()
	for req, ch := range p.pending {
		delete(p.pending, req)
		ch <- execResult{failed: true}
	}
	p.pmu.Unlock()
}

// sendExec ships one box call. Marshalling and writing happen under one
// lock so the codec's negotiation order is the wire order.
func (p *peer) sendExec(req uint64, home int, stolen bool, box string, input *record.Record) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.dead.Load() {
		return errPeerDead
	}
	rec, err := p.enc.Marshal(input)
	if err != nil {
		// Marshalable was pre-checked, so this is an extension Encode
		// failure: the negotiation state may already be advanced and the
		// link cannot be trusted.
		p.dead.Store(true)
		return err
	}
	hdr := appendExecHeader(p.hdrBuf[:0], req, home, box)
	p.hdrBuf = hdr
	typ := fExec
	if stolen {
		typ = fStealGrant
	}
	return p.writeLocked(typ, hdr, rec)
}

func (p *peer) sendGoodbye(reason string) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.dead.Load() {
		return
	}
	g := appendGoodbye(p.hdrBuf[:0], reason)
	p.hdrBuf = g
	p.writeLocked(fGoodbye, g)
}

// sendPing probes a link the coordinator has not heard from; the worker
// answers PONG from its reader even while every slot is busy executing,
// so only a truly unresponsive process stays silent.
func (p *peer) sendPing() {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.dead.Load() {
		return
	}
	p.writeLocked(fPing)
}

func (p *peer) sendPong() {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.dead.Load() {
		return
	}
	p.writeLocked(fPong)
}

// norm maps an arbitrary node index onto a real node, like the model does.
func (c *Cluster) norm(n int) int {
	size := c.model.Nodes()
	return ((n % size) + size) % size
}

// peerAt returns the live, dispatchable peer owning node n — nil for node
// 0, an un-joined node, a dead connection, or a quarantined node (its
// connection may be up, but calls are kept local until a probe
// requalifies it).
func (c *Cluster) peerAt(n int) *peer {
	if n <= 0 || n > len(c.peers) {
		return nil
	}
	p := c.peers[n-1].Load()
	if p == nil || p.dead.Load() {
		return nil
	}
	if c.quarantined(n) {
		return nil
	}
	return p
}

// Nodes implements core.Platform.
func (c *Cluster) Nodes() int { return c.model.Nodes() }

// Transfer implements core.Platform: the model accounts the hop, and when
// the destination node lives in a worker process the record is mirrored
// there as a RECORD-BATCH frame, so the link's label negotiation and byte
// traffic are real, not just accounted.
func (c *Cluster) Transfer(from, to int, r *record.Record) {
	c.model.Transfer(from, to, r)
	c.mirror(from, to, []*record.Record{r})
}

// TransferBatch implements core.Platform (see Transfer).
func (c *Cluster) TransferBatch(from, to int, rs []*record.Record) {
	c.model.TransferBatch(from, to, rs)
	c.mirror(from, to, rs)
}

// mirror ships a cross-node stream batch to the worker that owns the
// destination node. Hops into node 0 are not mirrored — their payloads
// already cross the socket as RESULT frames. Batches containing records
// without a wire form are accounted by the model only, and counted — as
// are batches bound for an unavailable (dead or quarantined) node.
func (c *Cluster) mirror(from, to int, rs []*record.Record) {
	t := c.norm(to)
	f := c.norm(from)
	if t == 0 || t == f || len(rs) == 0 {
		return
	}
	p := c.peerAt(t)
	if p == nil {
		c.skippedMirrors.Add(1)
		return
	}
	for _, r := range rs {
		if !c.probe.Marshalable(r) {
			c.skippedMirrors.Add(1)
			return
		}
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.dead.Load() {
		c.skippedMirrors.Add(1)
		return
	}
	data, err := p.enc.MarshalBatch(rs)
	if err != nil {
		p.dead.Store(true)
		c.skippedMirrors.Add(1)
		return
	}
	hdr := appendBatchHeader(p.hdrBuf[:0], f, t)
	p.hdrBuf = hdr
	if p.writeLocked(fBatch, hdr, data) == nil {
		c.mirroredBatches.Add(1)
	}
}

// Loads implements core.Platform: the model's slot ledger, which counts
// every execution it granted — remote ones included, for as long as their
// call is outstanding. Nodes whose worker is unavailable — dead connection, or quarantined — are reported
// as saturated, so load-aware placement and steal scans route around
// them until a rejoin or probe restores them (graceful degradation: the
// network keeps rendering on the remaining nodes).
func (c *Cluster) Loads(dst []int) []int {
	dst = c.model.Loads(dst)
	for n := 1; n < len(dst) && n <= len(c.peers); n++ {
		p := c.peers[n-1].Load()
		if p == nil || p.dead.Load() || c.quarantined(n) {
			dst[n] += unavailableLoad
		}
	}
	return dst
}

// ExecBox implements core.Platform: the model grants a slot (with
// cancellation and stealing exactly as in-process), and when the granted
// node lives in a worker process that registered the box — and the input
// has a wire form — the call ships as an EXEC (or STEAL-GRANT, when the
// model migrated it) frame and the worker's emissions return as the
// outs. Otherwise local() runs on the granted slot, and a peer that dies
// mid-call — or exhausts the call deadline's retry budget — fails over
// to local() too: boxes are stateless and the lost emissions never
// entered the stream, so re-running is safe.
func (c *Cluster) ExecBox(node int, cancel <-chan struct{}, box string, input *record.Record,
	stealable bool, local func()) ([]*record.Record, bool, bool, error) {
	home := c.norm(node)
	var outs []*record.Record
	var boxErr error
	remote := false
	granted := c.model.ExecOn(home, cancel, input, stealable, func(got int) {
		p := c.peerAt(got)
		if p == nil || !p.boxes[box] || !c.probe.Marshalable(input) {
			c.localExecs.Add(1)
			local()
			return
		}
		jid := c.journalDispatch(box, input)
		rs, err, failed := c.roundTrip(p, home, got != home, box, input)
		if failed {
			c.failovers.Add(1)
			c.localExecs.Add(1)
			local()
			// The failover ran the call to completion locally, so the
			// dispatch is done — an orphan only exists when no process
			// finished the work.
			c.journalComplete(jid)
			return
		}
		c.journalComplete(jid)
		c.remoteExecs.Add(1)
		if got != home {
			c.stolenExecs.Add(1)
		}
		outs, boxErr, remote = rs, err, true
	})
	return outs, remote, granted, boxErr
}

// journalDispatch records a remote box dispatch in the exec journal,
// returning the delivery id to acknowledge on completion. Zero means
// untracked: no journal configured, or the append failed — the dispatch
// proceeds either way (durability degrades before availability does),
// with the failure logged.
func (c *Cluster) journalDispatch(box string, input *record.Record) uint64 {
	if c.jnl == nil {
		return 0
	}
	id, err := c.jnl.Append(box, input)
	if err != nil {
		c.logf("wire: exec journal append: %v", err)
		return 0
	}
	return id
}

// journalComplete acknowledges a completed dispatch in the exec journal.
func (c *Cluster) journalComplete(id uint64) {
	if id == 0 {
		return
	}
	if err := c.jnl.Ack([]uint64{id}); err != nil {
		c.logf("wire: exec journal ack: %v", err)
	}
}

// Orphans returns the calls a previous coordinator dispatched to workers
// but never saw complete — journaled before their EXEC frames shipped,
// never acknowledged — as found in the exec journal when this
// coordinator opened it. Entry.Meta is the box name, Entry.Rec the input
// record, exactly as dispatched. Nil without a journal, or after
// RedriveOrphans has consumed them; the records belong to the cluster
// until then.
func (c *Cluster) Orphans() []journal.Entry {
	c.orphanMu.Lock()
	defer c.orphanMu.Unlock()
	return c.orphans
}

// RedriveOrphans re-executes every orphaned call through the normal
// dispatch path: each call is placed round-robin across the worker
// nodes and goes through ExecBox exactly like a live dispatch — remote
// when a live worker registers the box, otherwise via run, the caller's
// local fallback (it receives the box name and input and returns the
// emissions; required because box bodies live with the application, not
// the transport). Each completed call is acknowledged in the journal
// and handed to deliver with its emissions and box error — matching
// local call semantics, emissions before a failure still flow, and the
// error lets the caller route the record into its retry/dead-letter
// policy. deliver owns the emissions. RedriveOrphans consumes the
// orphan set: a second call is a no-op returning 0.
func (c *Cluster) RedriveOrphans(
	run func(box string, input *record.Record) ([]*record.Record, error),
	deliver func(box string, outs []*record.Record, err error),
) (int, error) {
	if c.jnl == nil {
		return 0, errors.New("wire: no exec journal (CoordinatorConfig.JournalDir unset)")
	}
	c.orphanMu.Lock()
	orphans := c.orphans
	c.orphans = nil
	c.orphanMu.Unlock()
	if len(orphans) == 0 {
		return 0, nil
	}
	ids := make([]uint64, 0, len(orphans))
	for i, e := range orphans {
		node := 1 + i%len(c.peers)
		var louts []*record.Record
		var lerr error
		box, input := e.Meta, e.Rec
		outs, remote, granted, err := c.ExecBox(node, nil, box, input, false, func() {
			if run != nil {
				louts, lerr = run(box, input)
			}
		})
		if !granted {
			// Unreachable with a nil cancel channel, but refuse to ack
			// work that did not run.
			break
		}
		if !remote {
			outs, err = louts, lerr
		}
		if deliver != nil {
			deliver(box, outs, err)
		}
		ids = append(ids, e.ID)
	}
	if err := c.jnl.Ack(ids); err != nil {
		return len(ids), fmt.Errorf("wire: exec journal ack after redrive: %w", err)
	}
	return len(ids), nil
}

// roundTrip ships one box call, waiting for its RESULT within the call
// deadline and re-sending up to the retry budget. failed means the peer
// died, was quarantined mid-call, or every attempt timed out — the caller
// should fail over to local execution.
func (c *Cluster) roundTrip(p *peer, home int, stolen bool, box string, input *record.Record) ([]*record.Record, error, bool) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if p.dead.Load() || c.quarantined(p.node) {
				return nil, nil, true
			}
			c.retries.Add(1)
		}
		outs, err, ok := c.tryCall(p, home, stolen, box, input)
		if ok {
			return outs, err, false
		}
		if attempt >= c.cfg.CallRetries {
			return nil, nil, true
		}
	}
}

// tryCall is one EXEC→RESULT attempt. ok=false means the attempt failed —
// send error, peer death, or call deadline — and a fault was recorded
// against the node; a RESULT arriving after the deadline is discarded
// (its decode still runs in the reader, keeping the codec in step).
func (c *Cluster) tryCall(p *peer, home int, stolen bool, box string, input *record.Record) ([]*record.Record, error, bool) {
	req := c.reqSeq.Add(1)
	ch := make(chan execResult, 1)
	p.addPending(req, ch)
	if err := p.sendExec(req, home, stolen, box, input); err != nil {
		p.dropPending(req)
		c.fault(p.node, c.now())
		return nil, nil, false
	}
	if c.cfg.CallTimeout <= 0 {
		res := <-ch
		if res.failed {
			return nil, nil, false
		}
		return res.outs, res.err, true
	}
	t := c.cfg.Clock.NewTimer(c.cfg.CallTimeout)
	defer t.Stop()
	select {
	case res := <-ch:
		if res.failed {
			return nil, nil, false
		}
		return res.outs, res.err, true
	case <-t.C:
		p.dropPending(req)
		c.timeouts.Add(1)
		c.fault(p.node, c.now())
		return nil, nil, false
	}
}

// Stats returns the scheduling model's accounting — the same counters,
// with the same meaning, as an in-process dist.Cluster, which is what
// keeps BENCH trajectories comparable across transports. The measured
// transport reality is WireStats.
func (c *Cluster) Stats() dist.Stats { return c.model.Stats() }

// SetTransferCost configures the model's transfer-cost delay, layered on
// top of the real socket latency (see docs/performance.md for how the two
// relate).
func (c *Cluster) SetTransferCost(latency time.Duration, bytesPerSecond float64) {
	c.model.SetTransferCost(latency, bytesPerSecond)
}

// WireStats snapshots the transport counters.
func (c *Cluster) WireStats() WireStats {
	live := 0
	for i := range c.peers {
		if p := c.peers[i].Load(); p != nil && !p.dead.Load() {
			live++
		}
	}
	return WireStats{
		FramesSent:      c.framesOut.Load(),
		FramesRecv:      c.framesIn.Load(),
		BytesSent:       c.bytesOut.Load(),
		BytesRecv:       c.bytesIn.Load(),
		RemoteExecs:     c.remoteExecs.Load(),
		LocalExecs:      c.localExecs.Load(),
		StolenExecs:     c.stolenExecs.Load(),
		Failovers:       c.failovers.Load(),
		Timeouts:        c.timeouts.Load(),
		Retries:         c.retries.Load(),
		Rejoins:         c.rejoins.Load(),
		Quarantines:     c.quarantines.Load(),
		MirroredBatches: c.mirroredBatches.Load(),
		SkippedMirrors:  c.skippedMirrors.Load(),
		LiveWorkers:     live,
	}
}

// Workers lists the joined workers' advertised box tables, for
// diagnostics ("worker 2 registered [solver]").
func (c *Cluster) Workers() []string {
	var out []string
	for i := range c.peers {
		p := c.peers[i].Load()
		if p == nil {
			continue
		}
		boxes := make([]string, 0, len(p.boxes))
		for b := range p.boxes {
			boxes = append(boxes, b)
		}
		sort.Strings(boxes)
		state := "up"
		switch {
		case p.dead.Load():
			state = "down"
		case c.quarantined(p.node):
			state = "quarantined"
		}
		out = append(out, fmt.Sprintf("node %d (%s, %d cpus advertised): %v", p.node, state, p.cpus, boxes))
	}
	return out
}

// Close performs the orderly shutdown: GOODBYE to every worker, a bounded
// wait for their acks, and reclamation of every transport goroutine. It
// is idempotent and safe to call with executions drained (close the
// network instance first). Workers exit their Run loop with a nil error
// on receiving GOODBYE.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.joinTimer.Stop()
		c.joinMu.Lock()
		joined := c.joined
		c.joinMu.Unlock()
		c.finishReady(fmt.Errorf("wire: coordinator closed with %d of %d workers joined",
			joined, c.cfg.Workers))
		c.ln.Close()
		for i := range c.peers {
			p := c.peers[i].Load()
			if p == nil {
				continue
			}
			p.sendGoodbye("coordinator shutdown")
			// The reader exits on the worker's GOODBYE ack or, if the
			// worker never answers, on this deadline — either way every
			// goroutine is reclaimed.
			//lint:reason conn deadlines are compared against real time by the kernel, never against the cluster clock
			p.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		}
	})
	c.wg.Wait()
	// Executions are drained (Close's contract), so no dispatch can race
	// the journal close; a close error surfaces — it can mean the final
	// acks did not reach disk and the next coordinator will re-drive
	// already-completed calls.
	var jerr error
	c.jnlClose.Do(func() {
		if c.jnl != nil {
			jerr = c.jnl.Close()
		}
	})
	return jerr
}
