package probe

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/journal"
	"snet/internal/raytrace"
	"snet/internal/record"
	"snet/internal/rtype"
	"snet/internal/sched"
	"snet/internal/simnet"
	"snet/internal/stream"
	"snet/internal/wire"
)

var (
	symVal  = record.Intern("val")
	symAcc  = record.Intern("acc")
	symKey  = record.Intern("key")
	symSlot = record.Intern("slot")
	symWin  = record.Intern("win")
	symX    = record.Intern("x")
	symY    = record.Intern("y")
)

// reading is window_agg's input record shape: one field, three tags.
func reading() *record.Record {
	return record.New().SetFieldSym(symVal, 7).
		SetTagSym(symKey, 3).SetTagSym(symSlot, 5).SetTagSym(symWin, 16)
}

var sink any // keeps results alive so the loops are not optimised away

func recordProbes(s *set) {
	const n = 100000
	r := reading()
	s.timed("record.copy_ns", n, func() {
		for i := 0; i < n; i++ {
			sink = r.Copy()
		}
	})
	s.each("record.copy_allocs", func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			sink = r.Copy()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / n
	})
	// A box output inheriting the labels its box did not consume.
	dst := record.New()
	consumed := []record.Sym{symVal}
	s.timed("record.inherit_ns", n, func() {
		for i := 0; i < n; i++ {
			dst.Reset()
			dst.SetFieldSym(symAcc, 1)
			dst.InheritFromExcept(r, consumed, nil)
		}
	})
	pool := record.NewPool()
	s.timed("record.pool_cycle_ns", n, func() {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get().SetFieldSym(symVal, i).SetTagSym(symKey, i))
		}
	})

	// A pattern with a guard-free variant, and a two-variant type as a
	// choice dispatches on.
	pat := rtype.NewPattern(rtype.NewVariant(rtype.F("val"), rtype.T("key")))
	typ := rtype.NewType(
		rtype.NewVariant(rtype.F("acc"), rtype.F("val")),
		rtype.NewVariant(rtype.F("val"), rtype.T("key")))
	hits := 0
	s.timed("rtype.match_ns", n, func() {
		for i := 0; i < n; i++ {
			if pat.Matches(r) {
				hits++
			}
		}
	})
	s.timed("rtype.bestmatch_ns", n, func() {
		for i := 0; i < n; i++ {
			if v, _ := typ.BestMatch(r); v != nil {
				hits++
			}
		}
	})
	sink = hits
}

// hop pushes n records through one producer→consumer link and waits for
// the consumer to drain them (internal/stream's BenchmarkLinkHop).
func hop(n, batch int, r *record.Record) {
	done := make(chan struct{})
	l := stream.NewLink(stream.Config{Capacity: 64, BatchSize: batch})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, ok := l.Recv(done); !ok {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		l.Send(r, done)
	}
	l.Close(done)
	<-drained
}

func streamProbes(s *set) {
	const n = 20000
	r := reading()
	s.timed("stream.hop_ns_b1", n, func() { hop(n, 1, r) })
	s.timed("stream.hop_ns_b16", n, func() { hop(n, 16, r) })
	burst := make([]*record.Record, 8)
	for i := range burst {
		burst[i] = r
	}
	s.timed("stream.sendmany_ns", n, func() {
		done := make(chan struct{})
		l := stream.NewLink(stream.Config{Capacity: 256, BatchSize: 16})
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				if _, ok := l.Recv(done); !ok {
					return
				}
			}
		}()
		for i := 0; i < n/len(burst); i++ {
			l.SendMany(burst, done)
		}
		l.Close(done)
		<-drained
	})
}

func copyBox(name string, field record.Sym) *core.Entity {
	label := rtype.F(record.SymName(field))
	return core.NewBox(name, core.MustSig([]rtype.Label{label}, []rtype.Label{label}),
		func(c *core.BoxCall) error {
			c.Emit(c.NewRecord().SetFieldSym(field, c.FieldSym(field)))
			return nil
		})
}

// through times n records made by mk through a one-entity network, the
// records drawn from and returned to a pool, and reports ns per output
// record; outs is how many outputs the n inputs must produce.
func (s *set) through(name string, e *core.Entity, n, outs int, mk func(r *record.Record, i int)) {
	net := core.NewNetwork(e, core.Options{})
	pool := record.NewPool()
	ins := make([]*record.Record, n)
	s.timed(name, outs, func() {
		for i := range ins {
			ins[i] = pool.Get()
			mk(ins[i], i)
		}
		got, err := net.Run(ins...)
		if err != nil || len(got) != outs {
			s.fail(name, fmt.Errorf("%d outputs, want %d (err %v)", len(got), outs, err))
		}
		for _, r := range got {
			pool.Put(r)
		}
	})
}

func coreProbes(s *set) {
	const n = 4000
	setX := func(r *record.Record, i int) { r.SetFieldSym(symX, i) }
	s.through("core.box_ns", copyBox("b", symX), n, n, setX)

	stamp := core.NewFilter("", core.FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant()),
		Outputs: []core.FilterOutput{{SetTags: []core.TagAssign{{
			Name: "p", Expr: func(*record.Record) int { return 1 }, Src: "p"}}}},
	})
	s.through("core.filter_ns", stamp, n, n, setX)

	// One join per pair: each pair gets its own synchrocell replica, as in
	// wireapp's pipeline. Two inputs make one output.
	pair := core.Split(core.NewSync(
		rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
		rtype.NewPattern(rtype.NewVariant(rtype.F("y")))), "key")
	s.through("core.sync_pair_ns", pair, n, n/2, func(r *record.Record, i int) {
		if i%2 == 0 {
			r.SetFieldSym(symX, i)
		} else {
			r.SetFieldSym(symY, i)
		}
		r.SetTagSym(symKey, i/2)
	})

	// 50 records each unroll 40 star stages: ns per stage crossed.
	const stages, starRecs = 40, 50
	symN := record.Intern("n")
	inc := core.NewBox("inc", core.MustSig([]rtype.Label{rtype.T("n")}, []rtype.Label{rtype.T("n")}),
		func(c *core.BoxCall) error {
			c.Emit(c.NewRecord().SetTagSym(symN, c.TagSym(symN)+1))
			return nil
		})
	exit := rtype.NewPattern(rtype.NewVariant(rtype.T("n"))).WithGuard(
		func(r *record.Record) bool { v, _ := r.TagSym(symN); return v >= stages }, "<n> >= 40")
	starNet := core.NewNetwork(core.Star(inc, exit), core.Options{})
	s.timed("core.star_iter_ns", stages*starRecs, func() {
		ins := make([]*record.Record, starRecs)
		for i := range ins {
			ins[i] = record.New().SetTagSym(symN, 0)
		}
		got, err := starNet.Run(ins...)
		if err != nil || len(got) != starRecs {
			s.fail("core.star_iter_ns", fmt.Errorf("%d outputs, want %d (err %v)", len(got), starRecs, err))
		}
	})

	s.through("core.split_ns", core.Split(copyBox("b", symX), "key"), n, n,
		func(r *record.Record, i int) { r.SetFieldSym(symX, i).SetTagSym(symKey, i%16) })

	alternate := func(r *record.Record, i int) {
		if i%2 == 0 {
			r.SetFieldSym(symX, i)
		} else {
			r.SetFieldSym(symY, i)
		}
	}
	s.through("core.choice_ns", core.Choice(copyBox("bx", symX), copyBox("by", symY)), n, n, alternate)
	s.through("core.detchoice_ns", core.DetChoice(copyBox("bx", symX), copyBox("by", symY)), n, n, alternate)
}

func distProbes(s *set) {
	const n = 20000
	cl := dist.NewCluster(4, 2)
	s.timed("dist.exec_ns", n, func() {
		for i := 0; i < n; i++ {
			cl.Exec(i%4, func() {})
		}
	})
	r := reading()
	s.timed("dist.transfer_ns", n, func() {
		for i := 0; i < n; i++ {
			cl.Transfer(0, 1, r)
		}
	})
	batch := make([]*record.Record, 16)
	for i := range batch {
		batch[i] = r
	}
	s.timed("dist.transfer_batch_ns_per_record", n, func() {
		for i := 0; i < n/len(batch); i++ {
			cl.TransferBatch(0, 1, batch)
		}
	})

	// Warm codec: the label table is negotiated by the first message.
	enc, dec := dist.NewCodec(), dist.NewCodec()
	first, err := enc.Marshal(r)
	s.fail("dist codec", err)
	_, err = dec.Unmarshal(first)
	s.fail("dist codec", err)
	var msg []byte
	s.timed("dist.codec_marshal_ns", n, func() {
		for i := 0; i < n; i++ {
			msg, _ = enc.Marshal(r)
		}
	})
	s.exact("dist.codec_bytes_per_record", float64(len(msg)))
	s.timed("dist.codec_unmarshal_ns", n, func() {
		for i := 0; i < n; i++ {
			sink, _ = dec.Unmarshal(msg)
		}
	})
}

// wireProbes times Cluster.ExecBox on a no-op box at one remote worker:
// EXEC out, RESULT back, codec warm.
func wireProbes(s *set) {
	cl, err := wire.Listen("127.0.0.1:0", wire.CoordinatorConfig{Workers: 1, CPUsPerNode: 1})
	if err != nil {
		s.fail("wire", err)
		return
	}
	w := wire.NewWorker(wire.WorkerConfig{})
	w.Register("noop", func(c *core.BoxCall) error {
		c.Emit(c.NewRecord().SetFieldSym(symX, c.FieldSym(symX)))
		return nil
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(cl.Addr().String()) // returns when the coordinator closes
	}()
	defer func() {
		s.fail("wire", cl.Close())
		wg.Wait()
	}()
	if err := cl.WaitReady(); err != nil {
		s.fail("wire", err)
		return
	}
	const n = 300
	in := record.New().SetFieldSym(symX, 1)
	call := func() {
		outs, remote, ok, err := cl.ExecBox(1, nil, "noop", in, false, func() {})
		if err != nil || !ok || !remote || len(outs) != 1 {
			s.fail("wire.exec_rtt_us", fmt.Errorf("ExecBox: outs=%d remote=%v ok=%v err=%v", len(outs), remote, ok, err))
		}
	}
	call()
	s.timed("wire.exec_rtt_us", n*1000, func() { // ns per call / 1000 = µs
		for i := 0; i < n; i++ {
			call()
		}
	})
}

func journalProbes(s *set, dir string) {
	const n = 4000
	r := reading()
	ids := make([]uint64, 0, n)
	appendN := func(j *journal.Journal) {
		ids = ids[:0]
		for i := 0; i < n; i++ {
			id, err := j.Append("", r)
			if err != nil {
				s.fail("journal append", err)
			}
			ids = append(ids, id)
		}
	}
	ackAll := func(j *journal.Journal) {
		for lo := 0; lo < len(ids); lo += 16 {
			s.fail("journal ack", j.Ack(ids[lo:min(lo+16, len(ids))]))
		}
	}
	// Appends and acks, page cache only; then the same with batched fsync
	// — the two rows ROADMAP's "NoSync slower than BatchSync" anomaly asks
	// about.
	for _, p := range []struct {
		metric string
		fsync  journal.FsyncPolicy
	}{{"journal.append_ns", journal.FsyncNever}, {"journal.append_ns_batchsync", journal.FsyncBatch}} {
		sub := filepath.Join(dir, p.metric)
		j, err := journal.Open(journal.Config{Dir: sub, Fsync: p.fsync})
		if err != nil {
			s.fail("journal", err)
			return
		}
		var ackNS []float64
		s.each(p.metric, func() float64 {
			t0 := time.Now()
			appendN(j)
			took := time.Since(t0)
			t0 = time.Now()
			ackAll(j)
			ackNS = append(ackNS, float64(time.Since(t0))/n)
			return float64(took) / n
		})
		if p.fsync == journal.FsyncNever {
			med, q1, q3 := quartiles(ackNS)
			s.out = append(s.out, Result{Name: "journal.ack_ns_per_id", Unit: "ns", Median: med, Q1: q1, Q3: q3})
		}
		s.fail("journal", j.Close())
	}

	// Bytes per accepted record on disk, and what Open pays to replay a
	// segment of n unacknowledged records.
	sub := filepath.Join(dir, "open")
	j, err := journal.Open(journal.Config{Dir: sub, Fsync: journal.FsyncNever})
	if err != nil {
		s.fail("journal", err)
		return
	}
	appendN(j)
	s.fail("journal", j.Close())
	var size int64
	files, _ := os.ReadDir(sub)
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			size += info.Size()
		}
	}
	s.exact("journal.bytes_per_record", float64(size)/n)
	s.each("journal.open_ms", func() float64 {
		t0 := time.Now()
		j, err := journal.Open(journal.Config{Dir: sub, Fsync: journal.FsyncNever})
		took := time.Since(t0)
		if err != nil {
			s.fail("journal.open_ms", err)
			return 0
		}
		if got := len(j.Recovered()); got != n {
			s.fail("journal.open_ms", fmt.Errorf("recovered %d entries, want %d", got, n))
		}
		s.fail("journal", j.Close())
		return float64(took) / float64(time.Millisecond)
	})
}

// appProbes covers the kernel (raytrace) and the deterministic cluster
// model (simnet).
func appProbes(s *set, seed int64) {
	const w, h = 128, 96
	scene := raytrace.UnbalancedScene(100, seed)
	var st raytrace.Stats
	s.each("raytrace.render_ms", func() float64 {
		t0 := time.Now()
		_, st = raytrace.Render(scene, w, h)
		return float64(time.Since(t0)) / float64(time.Millisecond)
	})
	s.exact("raytrace.rays_per_render", float64(st.PrimaryRays+st.SecondaryRays+st.ShadowRays))

	// The 32 factoring sections render_fig6's Dynamic arm deals out: their
	// spread is the skew a scheduler works around.
	spans, err := sched.PaperFactoring(h, 32)
	if err != nil {
		s.fail("raytrace sections", err)
		return
	}
	per := make([][]float64, len(spans))
	for rep := 0; rep < s.reps; rep++ {
		for i, sp := range spans {
			t0 := time.Now()
			raytrace.RenderSection(scene, raytrace.Section{Index: i, W: w, H: h, Y0: sp.Lo, Y1: sp.Hi})
			per[i] = append(per[i], float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	meds := make([]float64, len(per))
	for i, v := range per {
		meds[i], _, _ = quartiles(v)
	}
	sort.Float64s(meds)
	p50 := meds[len(meds)/2]
	top := meds[len(meds)-1]
	s.out = append(s.out,
		Result{Name: "raytrace.section_ms_p50", Unit: "ms", Median: p50, Q1: meds[len(meds)/4], Q3: meds[3*len(meds)/4]},
		Result{Name: "raytrace.section_ms_max", Unit: "ms", Median: top, Q1: top, Q3: top})

	// Model outputs: functions of the paper's row profile alone. A
	// cost-model unification must reproduce them bit for bit.
	profile := simnet.PaperRowProfile(3000)
	rows, err := simnet.Fig6(profile, simnet.PaperNodeCounts)
	if err != nil {
		s.fail("simnet.Fig6", err)
		return
	}
	s.exact("simnet.fig6_dynamic_8node_s", rows[len(rows)-1].BestDynamic)
	pts, err := simnet.Fig5(profile, true, simnet.PaperTaskTokenCounts, simnet.PaperTaskTokenCounts)
	if err != nil {
		s.fail("simnet.Fig5", err)
		return
	}
	best := pts[0].Runtime
	for _, p := range pts {
		best = min(best, p.Runtime)
	}
	s.exact("simnet.fig5_factoring_best_s", best)
}
