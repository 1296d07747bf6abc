package workloads

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"snet/internal/core"
	"snet/internal/journal"
	"snet/internal/record"
	"snet/internal/rtype"
)

var symX = record.Intern("x")

// identityPipeline is BenchmarkRecordThroughput's network: n boxes that
// each copy field x into a fresh record — no payload work, so what is
// timed is what the runtime adds.
func identityPipeline(n int) *core.Entity {
	sig := core.MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	boxes := make([]*core.Entity, n)
	for i := range boxes {
		boxes[i] = core.NewBox(fmt.Sprintf("b%d", i), sig, func(c *core.BoxCall) error {
			c.Emit(c.NewRecord().SetFieldSym(symX, c.FieldSym(symX)))
			return nil
		})
	}
	return core.SerialAll(boxes[0], boxes[1:]...)
}

// journalCounts is what the counting filesystem saw the journal do.
type journalCounts struct {
	appends, acks, fsyncs, segments, bytes atomic.Int64
}

// countFS wraps the journal's filesystem seam and reads the journal's
// behaviour off the bytes it writes: the frame format is documented in
// package journal (u32 length | u32 CRC | payload; payload[0] is 'A' for an
// accept, 'K' followed by a u16 count for an ack list). The scan follows
// the byte stream across Write calls, so it stays right if a later change
// groups several frames into one write.
type countFS struct {
	journal.FS
	c *journalCounts
}

func (f countFS) OpenAppend(name string) (journal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	f.c.segments.Add(1)
	return &countFile{File: file, c: f.c}, nil
}

type countFile struct {
	journal.File
	c    *journalCounts
	head [11]byte // frame header, entry type, ack count
	have int      // bytes of head filled
	skip int      // payload bytes left before the next frame
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.bytes.Add(int64(n))
	for q := p[:n]; len(q) > 0; {
		if f.skip > 0 {
			k := min(f.skip, len(q))
			f.skip -= k
			q = q[k:]
			continue
		}
		k := copy(f.head[f.have:], q)
		f.have += k
		q = q[k:]
		if f.have < len(f.head) {
			break
		}
		switch f.head[8] {
		case 'A':
			f.c.appends.Add(1)
		case 'K':
			f.c.acks.Add(int64(binary.LittleEndian.Uint16(f.head[9:])))
		}
		// Every payload is at least 11 bytes, 3 of which head holds.
		f.skip = int(binary.LittleEndian.Uint32(f.head[:4])) - 3
		f.have = 0
	}
	return n, err
}

func (f *countFile) Sync() error {
	f.c.fsyncs.Add(1)
	return f.File.Sync()
}

type pipelineSession struct {
	plain, durable *core.Network
	dir            string
	counts         journalCounts
	pool           *record.Pool
	epochs         int
}

// PipelineBoxes is the length of pipeline_durable's identity pipeline.
const PipelineBoxes = 8

// setupPipelineDurable builds the 8-box identity pipeline twice, without
// and with the ingress journal (FsyncNever: the CPU write path — framing,
// CRC, codec, completion tracking — independent of the disk).
func setupPipelineDurable(cfg *Config) (Session, error) {
	s := &pipelineSession{pool: record.NewPool()}
	span := cfg.Trace.Begin("journal.dir", 0, 0)
	dir, err := os.MkdirTemp(cfg.TmpDir, "journal-")
	span.End()
	if err != nil {
		return nil, err
	}
	s.dir = dir
	span = cfg.Trace.Begin("core.new_network", 0, 0)
	s.plain = core.NewNetwork(identityPipeline(PipelineBoxes), core.Options{})
	s.durable = core.NewNetwork(identityPipeline(PipelineBoxes), core.Options{
		Durability: &core.Durability{
			Dir: dir, FS: countFS{journal.DirFS(dir), &s.counts}, Fsync: journal.FsyncNever,
		}})
	span.End()
	return s, nil
}

// Slice alternates epochs of the two arms, plain first (ABAB), until d has
// passed; the durable arm's records are the workload's ops.
func (s *pipelineSession) Slice(d time.Duration, m *Meter) error {
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		cpu0 := cpuNow()
		n := s.epoch(m, s.plain, "plain", false)
		m.Count("_plain_cpu_ms", ms(cpuNow()-cpu0))
		m.Count("_plain_ops", float64(n))
		m.Main(func() int { return s.epoch(m, s.durable, "durable", true) })
	}
	return nil
}

// epoch pushes EpochRecords records through a fresh Instance of net in
// closed loop, InFlight outstanding, and returns how many came out exactly
// once.
func (s *pipelineSession) epoch(m *Meter, net *core.Network, arm string, main bool) int {
	s.epochs++
	op := m.NextOp()
	epochSpan := m.Trace.Begin("driver.epoch."+arm, op, 0)
	before := s.snapshot()
	span := m.Trace.Begin("core.start", op, epochSpan.ID())
	inst := net.Start()
	span.End()

	sentAt := make([]time.Time, EpochRecords)
	seen := make([]uint8, EpochRecords)
	sem := make(chan struct{}, InFlight)
	recvDone := make(chan struct{})
	stray := 0
	go func() {
		defer close(recvDone)
		for r := range inst.Out {
			now := time.Now()
			v, _ := r.FieldSym(symX)
			s.pool.Put(r)
			x, ok := v.(int)
			if !ok || x < 0 || x >= EpochRecords {
				stray++
				continue
			}
			if seen[x] < 255 {
				seen[x]++
			}
			if main {
				m.Op(now.Sub(sentAt[x]))
				if x%64 == 0 {
					m.Trace.Add("core.transit", op, epochSpan.ID(), sentAt[x], now)
				}
			}
			<-sem
		}
	}()
	t0 := time.Now()
	sent := 0
	for x := 0; x < EpochRecords; x++ {
		r := s.pool.Get().SetFieldSym(symX, x)
		sem <- struct{}{}
		sentAt[x] = time.Now()
		if !inst.Send(r) {
			break
		}
		sent++
	}
	span = m.Trace.Begin("core.close", op, epochSpan.ID())
	inst.CloseIn()
	<-recvDone
	err := inst.Close()
	span.End()
	epochSpan.End()
	took := time.Since(t0)

	good := 0
	for x := 0; x < sent; x++ {
		if seen[x] == 1 {
			good++
		}
	}
	if main {
		countLinks(m, inst.LinkStats())
		countOpt(m, inst.OptStats())
	}
	m.Arm(arm, took/time.Duration(max(sent, 1)))
	m.Count("_records."+arm, float64(sent))
	m.Count("_wall_ms."+arm, ms(took))
	after := s.snapshot()
	for k, v := range after {
		m.Count(k, v-before[k])
	}
	m.Snap("driver.epoch."+arm, "journal.appends", "journal.acks", "journal.segments")
	// The journal must have accepted every record and seen every one
	// acknowledged by the time the instance has closed.
	undrained := 0
	if main {
		if a, k := after["journal.appends"]-before["journal.appends"], after["journal.acks"]-before["journal.acks"]; int(a) != sent || int(k) != sent {
			undrained = 1
		}
	}
	if bad := countErrs(m, inst, err); bad+stray+undrained > 0 {
		good = 0
	}
	m.Checked(sent, sent-good, fmt.Sprintf("%s epoch: %d of %d records not delivered exactly once, %d stray outputs, journal drained=%v (close: %v)",
		arm, sent-good, sent, stray, undrained == 0, err))
	return good
}

func (s *pipelineSession) snapshot() map[string]float64 {
	return map[string]float64{
		"journal.appends":  float64(s.counts.appends.Load()),
		"journal.acks":     float64(s.counts.acks.Load()),
		"journal.fsyncs":   float64(s.counts.fsyncs.Load()),
		"journal.segments": float64(s.counts.segments.Load()),
		"_journal_bytes":   float64(s.counts.bytes.Load()),
	}
}

// Close reopens the journal directory the way a successor process would:
// anything it recovers was accepted and never acknowledged.
func (s *pipelineSession) Close(m *Meter) error {
	defer os.RemoveAll(s.dir)
	if s.epochs == 0 {
		return nil
	}
	j, err := journal.Open(journal.Config{Dir: s.dir, Fsync: journal.FsyncNever})
	if err != nil {
		return fmt.Errorf("journal reopen: %w", err)
	}
	left := len(j.Recovered())
	if err := j.Close(); err != nil {
		return fmt.Errorf("journal close: %w", err)
	}
	m.Count("journal.unacked_at_close", float64(left))
	m.Checked(0, left, fmt.Sprintf("journal.unacked_at_close = %d, want 0", left))
	return nil
}
