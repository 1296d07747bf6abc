package stream

import (
	"sync"
	"testing"
	"time"

	"snet/internal/record"
)

// mk builds a data record carrying tag <i>=v.
func mk(v int) *record.Record { return record.New().SetTag("i", v) }

// val reads the tag back.
func val(t *testing.T, r *record.Record) int {
	t.Helper()
	v, ok := r.Tag("i")
	if !ok {
		t.Fatalf("record %s lacks tag <i>", r)
	}
	return v
}

func TestFIFOAcrossBatchSizes(t *testing.T) {
	for _, bs := range []int{1, 2, 3, 16, 64} {
		l := NewLink(Config{Capacity: 64, BatchSize: bs})
		done := make(chan struct{})
		const n = 200
		go func() {
			for i := 0; i < n; i++ {
				if !l.Send(mk(i), done) {
					return
				}
			}
			l.Close(done)
		}()
		for i := 0; i < n; i++ {
			r, ok := l.Recv(done)
			if !ok {
				t.Fatalf("batch %d: stream ended at %d/%d", bs, i, n)
			}
			if got := val(t, r); got != i {
				t.Fatalf("batch %d: record %d out of order (got %d)", bs, i, got)
			}
		}
		if _, ok := l.Recv(done); ok {
			t.Fatalf("batch %d: extra record past close", bs)
		}
	}
}

func TestIdleFlushDeliversImmediately(t *testing.T) {
	// A receiver already blocked on an empty link must get the very next
	// record without waiting for fill-up.
	l := NewLink(Config{Capacity: 64, BatchSize: 64})
	done := make(chan struct{})
	got := make(chan int, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		r, ok := l.Recv(done)
		if ok {
			got <- val(t, r)
		}
	}()
	<-ready
	// Let the receiver reach its blocking point; correctness does not
	// depend on this (a steal covers the other interleaving), but the test
	// targets the idle-flush path.
	time.Sleep(10 * time.Millisecond)
	if !l.Send(mk(7), done) {
		t.Fatal("Send refused")
	}
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("idle receiver did not get the record promptly; idle flush broken")
	}
	st := l.Stats()
	if st.IdleFlushes+st.Steals == 0 {
		t.Fatalf("expected an idle flush or steal, stats: %+v", st)
	}
	close(done)
}

func TestReceiverStealsPartialBatch(t *testing.T) {
	// Records parked in a partial batch are reachable by a receiver that
	// arrives later, even though no further send will ever flush them.
	l := NewLink(Config{Capacity: 64, BatchSize: 16})
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		if !l.Send(mk(i), done) {
			t.Fatal("Send refused")
		}
	}
	for i := 0; i < 3; i++ {
		r, ok := l.Recv(done)
		if !ok || val(t, r) != i {
			t.Fatalf("steal lost record %d (ok=%v)", i, ok)
		}
	}
	if st := l.Stats(); st.Steals == 0 {
		t.Fatalf("expected a steal, stats: %+v", st)
	}
}

func TestCloseFlushesPending(t *testing.T) {
	l := NewLink(Config{Capacity: 64, BatchSize: 16})
	done := make(chan struct{})
	for i := 0; i < 5; i++ {
		l.Send(mk(i), done)
	}
	l.Close(done)
	for i := 0; i < 5; i++ {
		r, ok := l.Recv(done)
		if !ok || val(t, r) != i {
			t.Fatalf("record %d lost at close (ok=%v)", i, ok)
		}
	}
	if _, ok := l.Recv(done); ok {
		t.Fatal("record past end of stream")
	}
}

func TestDoneUnblocksSenderAndReceiver(t *testing.T) {
	// Capacity 2 with batch 1: the third concurrent send must block, and
	// closing done must release it with false.
	l := NewLink(Config{Capacity: 2, BatchSize: 1})
	done := make(chan struct{})
	res := make(chan bool, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res <- l.Send(mk(i), done)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	// A receiver on a second link observes done too.
	empty := NewLink(Config{Capacity: 2})
	recvDone := make(chan bool, 1)
	go func() {
		_, ok := empty.Recv(done)
		recvDone <- ok
	}()
	close(done)
	wg.Wait()
	delivered := 0
	for i := 0; i < 8; i++ {
		if <-res {
			delivered++
		}
	}
	if delivered == 8 {
		t.Fatal("all sends claimed delivery despite a full link and done")
	}
	if ok := <-recvDone; ok {
		t.Fatal("Recv returned a record from an empty link after done")
	}
}

func TestSendBatchOrderedAfterPending(t *testing.T) {
	l := NewLink(Config{Capacity: 64, BatchSize: 16})
	done := make(chan struct{})
	l.Send(mk(0), done) // parked in pend
	b := &Batch{Recs: []*record.Record{mk(1), mk(2)}}
	if !l.SendBatch(b, done) {
		t.Fatal("SendBatch refused")
	}
	for i := 0; i < 3; i++ {
		r, ok := l.Recv(done)
		if !ok || val(t, r) != i {
			t.Fatalf("record %d out of order after SendBatch (ok=%v)", i, ok)
		}
	}
}

func TestRecvBatchHandsOverRemainder(t *testing.T) {
	l := NewLink(Config{Capacity: 64, BatchSize: 8})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		l.Send(mk(i), done)
	}
	if r, ok := l.Recv(done); !ok || val(t, r) != 0 {
		t.Fatal("first record lost")
	}
	b, ok := l.RecvBatch(done)
	if !ok {
		t.Fatal("RecvBatch failed")
	}
	if len(b.Recs) != 7 {
		t.Fatalf("remainder has %d records, want 7", len(b.Recs))
	}
	for i, r := range b.Recs {
		if val(t, r) != i+1 {
			t.Fatalf("remainder record %d = %d", i, val(t, r))
		}
	}
	FreeBatch(b)
}

func TestConcurrentSendersDeliverEverything(t *testing.T) {
	// The second config is a regression pin: a tiny queue with batch 2
	// maximizes contention on the flush slot — unserialized flushes used
	// to let a preempted sender's detached batch be overtaken by a newer
	// one, breaking per-sender FIFO within seconds under -race.
	for _, cfg := range []Config{
		{Capacity: 32, BatchSize: 8},
		{Capacity: 2, BatchSize: 2},
	} {
		testConcurrentSenders(t, cfg)
	}
}

func testConcurrentSenders(t *testing.T, cfg Config) {
	t.Helper()
	l := NewLink(cfg)
	done := make(chan struct{})
	const senders, per = 8, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if !l.Send(mk(s*per+i), done) {
					t.Error("Send refused without done")
					return
				}
			}
		}(s)
	}
	go func() {
		wg.Wait()
		l.Close(done)
	}()
	seen := make(map[int]bool, senders*per)
	lastPerSender := make([]int, senders)
	for s := range lastPerSender {
		lastPerSender[s] = -1
	}
	for {
		r, ok := l.Recv(done)
		if !ok {
			break
		}
		v := val(t, r)
		if seen[v] {
			t.Fatalf("duplicate record %d", v)
		}
		seen[v] = true
		// Per-sender FIFO must hold even under concurrent interleaving.
		s := v / per
		if i := v % per; i <= lastPerSender[s] {
			t.Fatalf("sender %d reordered: %d after %d", s, i, lastPerSender[s])
		}
		lastPerSender[s] = v % per
	}
	if len(seen) != senders*per {
		t.Fatalf("delivered %d records, want %d", len(seen), senders*per)
	}
	st := l.Stats()
	if st.SentRecords != senders*per || st.RecvRecords != senders*per {
		t.Fatalf("stats lost records: %+v", st)
	}
	if st.Depth != 0 {
		t.Fatalf("drained link reports depth %d", st.Depth)
	}
}

func TestSendManySpansBatches(t *testing.T) {
	l := NewLink(Config{Capacity: 256, BatchSize: 4})
	done := make(chan struct{})
	rs := make([]*record.Record, 11)
	for i := range rs {
		rs[i] = mk(i)
	}
	if !l.SendMany(rs, done) {
		t.Fatal("SendMany refused")
	}
	l.Close(done)
	for i := 0; i < 11; i++ {
		r, ok := l.Recv(done)
		if !ok || val(t, r) != i {
			t.Fatalf("record %d lost or reordered (ok=%v)", i, ok)
		}
	}
	if st := l.Stats(); st.FullFlushes < 2 {
		t.Fatalf("SendMany of 11 over batch 4 should flush full batches, stats: %+v", st)
	}
}

func TestSendManyAccumulatesAcrossBursts(t *testing.T) {
	// SendMany bursts must accumulate toward a full batch while the
	// receiver is busy: a flush at the end of every burst would cap
	// batches at burst size and defeat the amortization.
	l := NewLink(Config{Capacity: 256, BatchSize: 16})
	done := make(chan struct{})
	for burst := 0; burst < 3; burst++ {
		rs := make([]*record.Record, 4)
		for i := range rs {
			rs[i] = mk(burst*4 + i)
		}
		if !l.SendMany(rs, done) {
			t.Fatal("SendMany refused")
		}
	}
	st := l.Stats()
	if st.SentBatches != 0 {
		t.Fatalf("12 records under a 16-batch flushed early: %+v", st)
	}
	// A fourth burst crosses the batch size and must flush full.
	rs := make([]*record.Record, 4)
	for i := range rs {
		rs[i] = mk(12 + i)
	}
	if !l.SendMany(rs, done) {
		t.Fatal("SendMany refused")
	}
	if st := l.Stats(); st.FullFlushes != 1 {
		t.Fatalf("16th record did not trigger the fill-up flush: %+v", st)
	}
	for i := 0; i < 16; i++ {
		r, ok := l.Recv(done)
		if !ok || val(t, r) != i {
			t.Fatalf("record %d lost or reordered (ok=%v)", i, ok)
		}
	}
}

func TestSynchronousConfig(t *testing.T) {
	// Capacity <= 0 degrades to unbuffered record-at-a-time handoff.
	cfg := Config{Capacity: -1}.Normalize()
	if cfg.BatchSize != 1 {
		t.Fatalf("synchronous config batch = %d", cfg.BatchSize)
	}
	l := NewLink(Config{Capacity: -1})
	done := make(chan struct{})
	const n = 10
	go func() {
		for i := 0; i < n; i++ {
			l.Send(mk(i), done)
		}
		l.Close(done)
	}()
	for i := 0; i < n; i++ {
		r, ok := l.Recv(done)
		if !ok || val(t, r) != i {
			t.Fatalf("sync link record %d (ok=%v)", i, ok)
		}
	}
}

func TestStatsFlushBreakdown(t *testing.T) {
	l := NewLink(Config{Capacity: 64, BatchSize: 2})
	done := make(chan struct{})
	for i := 0; i < 6; i++ {
		l.Send(mk(i), done)
	}
	st := l.Stats()
	if st.FullFlushes != 3 || st.SentBatches != 3 || st.SentRecords != 6 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Depth != 6 {
		t.Fatalf("depth %d, want 6 (nothing received yet)", st.Depth)
	}
	close(done)
}

// TestLinkSendersCloseOnce: a link counts its senders. Concurrent senders
// each close once; the stream ends at the last close only, with every
// sender's records delivered in that sender's order. A close that is not the
// last flushes the pending batch rather than leaving it to a steal.
func TestLinkSendersCloseOnce(t *testing.T) {
	done := make(chan struct{})
	const senders, per = 8, 500
	l := NewLink(Config{Capacity: 64, BatchSize: 16})
	l.AddSender(senders - 1)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if !l.Send(mk(i).SetTag("s", s), done) {
					t.Error("Send refused")
					return
				}
			}
			l.Close(done)
		}()
	}
	next := make([]int, senders)
	n := 0
	for {
		r, ok := l.Recv(done)
		if !ok {
			break
		}
		s, _ := r.Tag("s")
		if v := val(t, r); v != next[s] {
			t.Fatalf("sender %d: record %d arrived, want %d", s, v, next[s])
		}
		next[s]++
		n++
	}
	wg.Wait()
	if n != senders*per {
		t.Fatalf("stream ended after %d of %d records", n, senders*per)
	}

	// A non-final close flushes; only the final one ends the stream.
	l = NewLink(Config{Capacity: 64, BatchSize: 16})
	l.AddSender(1)
	if !l.Send(mk(7), done) {
		t.Fatal("Send refused")
	}
	l.Close(done)
	if s := l.Stats(); s.SentBatches != 1 || s.IdleFlushes != 1 || s.Steals != 0 {
		t.Fatalf("non-final close left the record pending: %+v", s)
	}
	if r, ok := l.Recv(done); !ok || val(t, r) != 7 {
		t.Fatalf("Recv = %v, %v", r, ok)
	}
	ended := make(chan bool, 1)
	go func() {
		_, ok := l.Recv(done)
		ended <- !ok
	}()
	select {
	case <-ended:
		t.Fatal("the stream ended at a non-final close")
	case <-time.After(20 * time.Millisecond):
	}
	l.Close(done)
	if !<-ended {
		t.Fatal("Recv returned a record after the last close")
	}
	l.Close(done) // after the end: nothing
}
