package workloads

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"snet/internal/journal"
)

func TestScheduleShape(t *testing.T) {
	a, b := Schedule(7), Schedule(7)
	if len(a) != EpochRecords {
		t.Fatalf("schedule has %d readings, want %d", len(a), EpochRecords)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, reading %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	other := Schedule(8)
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("another seed gave the same schedule")
	}
	// Every window gets WindowLen readings, one First and one Last, and the
	// records of incomplete windows never reach the in-flight cap (the
	// closed loop would deadlock).
	type acct struct{ n, first, last int }
	wins := map[[2]int]*acct{}
	open := 0
	for i, rd := range a {
		k := [2]int{rd.Key, rd.Slot}
		w := wins[k]
		if w == nil {
			w = &acct{}
			wins[k] = w
		}
		if rd.First != (w.n == 0) {
			t.Fatalf("reading %d: First=%v on the window's reading %d", i, rd.First, w.n)
		}
		w.n++
		open++
		if rd.Last {
			if w.n != WindowLen {
				t.Fatalf("reading %d: Last on the window's reading %d", i, w.n)
			}
			open -= WindowLen
		}
		if open >= InFlight {
			t.Fatalf("reading %d: %d records of incomplete windows outstanding, cap is %d", i, open, InFlight)
		}
	}
	if len(wins) != WindowKeys*WindowSlots {
		t.Fatalf("%d windows, want %d", len(wins), WindowKeys*WindowSlots)
	}
}

func TestInputHash(t *testing.T) {
	for _, w := range All() {
		a, err := InputHash(w.Name, 2010)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := InputHash(w.Name, 2010)
		if a != b {
			t.Errorf("%s: same seed, different inputs", w.Name)
		}
		c, _ := InputHash(w.Name, 2011)
		seeded := w.Name != "pipeline_durable" && w.Name != "wire_pipeline"
		if seeded && a == c {
			t.Errorf("%s: another seed gave the same inputs", w.Name)
		}
	}
}

// A full epoch of the window network moves an exact number of records over
// its links, whatever the interleaving: the count is usable as evidence.
func TestTrickleEpochIsWholeWindows(t *testing.T) {
	if TrickleEpoch%(WindowKeys*WindowLen) != 0 {
		t.Fatalf("an epoch of %d readings cuts windows in half", TrickleEpoch)
	}
}

func TestWindowEpochCountsRepeat(t *testing.T) {
	counts := func() map[string]float64 {
		cfg := &Config{Seed: 2010}
		s, err := setupWindowAgg(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := newMeter(nil)
		if got := s.(*windowSession).epoch(m, time.Now().Add(time.Hour)); got != EpochRecords {
			t.Fatalf("%d of %d readings accounted for by a correct sum: %v", got, EpochRecords, m.why)
		}
		return m.counts
	}
	a, b := counts(), counts()
	for _, name := range []string{"stream.records", "core.entities", "core.entities_unoptimized", "core.errs"} {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v", name, a[name], b[name])
		}
	}
	if a["stream.records"] == 0 || a["core.entities"] == 0 {
		t.Errorf("no counts: %v", a)
	}
}

// memFile is a journal.File over a buffer.
type memFile struct{ bytes.Buffer }

func (*memFile) Sync() error  { return nil }
func (*memFile) Close() error { return nil }

// The frame scan must count the same whether frames arrive one per write,
// several per write, or cut at arbitrary points.
func TestCountFileFollowsTheByteStream(t *testing.T) {
	frame := func(payload []byte) []byte {
		f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		f = binary.LittleEndian.AppendUint32(f, 0) // CRC: not read by the scan
		return append(f, payload...)
	}
	accept := frame(append([]byte{'A'}, make([]byte, 30)...))
	ack := func(n int) []byte {
		p := binary.LittleEndian.AppendUint16([]byte{'K'}, uint16(n))
		return frame(append(p, make([]byte, 8*n)...))
	}
	var stream []byte
	for i := 0; i < 5; i++ {
		stream = append(stream, accept...)
		stream = append(stream, ack(i+1)...)
	}
	for _, chunk := range []int{len(stream), 1, 7, 64} {
		var c journalCounts
		var f journal.File = &countFile{File: &memFile{}, c: &c}
		for lo := 0; lo < len(stream); lo += chunk {
			if _, err := f.Write(stream[lo:min(lo+chunk, len(stream))]); err != nil {
				t.Fatal(err)
			}
		}
		if c.appends.Load() != 5 || c.acks.Load() != 15 || c.bytes.Load() != int64(len(stream)) {
			t.Errorf("chunks of %d: appends=%d acks=%d bytes=%d, want 5, 15, %d",
				chunk, c.appends.Load(), c.acks.Load(), c.bytes.Load(), len(stream))
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("Percentile of nothing should be 0")
	}
}
