package journal_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"testing"

	"snet/internal/dist"
	"snet/internal/journal"
	"snet/internal/record"
)

// memFS is an in-memory journal.FS. A frozen memFS serves its files as
// they are: Remove is ignored and appends go nowhere, so every Open over
// it replays the same journal.
type memFS struct {
	mu     sync.Mutex
	files  map[string][]byte
	frozen bool
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

type memFile struct {
	fs   *memFS
	name string
}

func (f memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if !f.fs.frozen {
		f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	}
	return len(p), nil
}

func (memFile) Sync() error  { return nil }
func (memFile) Close() error { return nil }

func (m *memFS) OpenAppend(name string) (journal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok && !m.frozen {
		m.files[name] = nil
	}
	return memFile{m, name}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.files[name], nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.frozen {
		delete(m.files, name)
	}
	return nil
}

func (m *memFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func openMem(t testing.TB, fs journal.FS, segBytes int) *journal.Journal {
	t.Helper()
	j, err := journal.Open(journal.Config{FS: fs, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

// frame wraps a payload in the on-disk frame header.
func frame(payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
	return append(f, payload...)
}

// acceptFrame is an 'A' frame carrying body as its record bytes.
func acceptFrame(id uint64, meta string, body []byte) []byte {
	p := append([]byte{'A'}, binary.LittleEndian.AppendUint64(nil, id)...)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(meta)))
	p = append(p, meta...)
	return frame(append(p, body...))
}

// ackFrame is a 'K' frame acking ids.
func ackFrame(ids ...uint64) []byte {
	p := binary.LittleEndian.AppendUint16([]byte{'K'}, uint16(len(ids)))
	for _, id := range ids {
		p = binary.LittleEndian.AppendUint64(p, id)
	}
	return frame(p)
}

func entryIDs(es []journal.Entry) []uint64 {
	out := make([]uint64, 0, len(es))
	for _, e := range es {
		out = append(out, e.ID)
	}
	return out
}

// TestReplayDecodesAckedLabelDefinitions: an acked accept defines its
// labels inline and a later unacked accept of the same codec session only
// references them, so replay must decode the acked one to return the
// unacked one whole — in one segment and after a rotation, whose fresh
// codec session defines the labels again.
func TestReplayDecodesAckedLabelDefinitions(t *testing.T) {
	for _, tc := range []struct {
		name     string
		segBytes int
	}{{"one segment", 0}, {"across rotation", 256}} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newMemFS()
			j := openMem(t, fs, tc.segBytes)
			var ids []uint64
			for i := 0; i < 12; i++ {
				id, err := j.Append("m", rec(i))
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				ids = append(ids, id)
			}
			if err := j.Ack(ids[:len(ids)-1]); err != nil {
				t.Fatalf("Ack: %v", err)
			}
			segs := j.Stats().Segments
			j.Close()
			if tc.segBytes > 0 && segs < 2 {
				t.Fatalf("%d live segments, want the last accept past a rotation", segs)
			}
			j2 := openMem(t, fs, 0)
			defer j2.Close()
			got := j2.Recovered()
			if len(got) != 1 || got[0].ID != ids[len(ids)-1] {
				t.Fatalf("recovered %v, want [%d]", entryIDs(j2.Recovered()), ids[len(ids)-1])
			}
			if v, _ := got[0].Rec.Field("payload"); v != "value" {
				t.Errorf("payload = %v, want value", v)
			}
			if seq, ok := got[0].Rec.Tag("seq"); !ok || seq != 11 {
				t.Errorf("seq = %d (%v), want 11", seq, ok)
			}
			if got[0].Meta != "m" {
				t.Errorf("meta = %q, want m", got[0].Meta)
			}
			if s := j2.Stats(); s.Torn != 0 {
				t.Errorf("Torn = %d, want 0", s.Torn)
			}
		})
	}
}

// TestReplayCodecBreak pins the rule for a CRC-valid accept whose record
// bytes do not decode: it counts as torn and ends its segment's accepts
// where replay decodes it; an accept replay does not need is checked by
// length and CRC only; acks anywhere in the readable prefix are honoured
// and accept headers still advance NextID. Each accept's record carries
// its id as the seq tag.
func TestReplayCodecBreak(t *testing.T) {
	enc := dist.NewCodec()
	body := func(i int) []byte {
		b, err := enc.Marshal(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b3, b4 := body(1), body(3), body(4)
	broken := []byte{0x7f} // not the codec's version byte
	cases := []struct {
		name   string
		segs   [][][]byte
		want   []uint64
		torn   int
		nextID uint64
	}{
		{
			name: "break ends the segment's accepts",
			segs: [][][]byte{{acceptFrame(1, "", b1), acceptFrame(2, "", broken),
				acceptFrame(3, "", b3), ackFrame(1), acceptFrame(4, "", b4)}},
			want: nil, torn: 1, nextID: 5,
		},
		{
			name: "unneeded broken accept is not decoded",
			segs: [][][]byte{{acceptFrame(1, "", b1), acceptFrame(2, "", broken), ackFrame(2)}},
			want: []uint64{1}, torn: 0, nextID: 3,
		},
		{
			name: "acks after the break are honoured",
			segs: [][][]byte{{acceptFrame(1, "", b1), acceptFrame(2, "", broken),
				acceptFrame(3, "", b3), ackFrame(1, 3)}},
			want: nil, torn: 1, nextID: 4,
		},
		{
			name: "a later segment's copy replaces a broken accept",
			segs: [][][]byte{{acceptFrame(5, "", broken)},
				{acceptFrame(5, "", fresh(t, rec(5)))}},
			want: []uint64{5}, torn: 1, nextID: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newMemFS()
			for i, frames := range tc.segs {
				fs.files[segName(i)] = slices.Concat(frames...)
			}
			j := openMem(t, fs, 0)
			defer j.Close()
			if got := entryIDs(j.Recovered()); !slices.Equal(got, tc.want) {
				t.Errorf("recovered %v, want %v", got, tc.want)
			}
			if s := j.Stats(); s.Torn != tc.torn {
				t.Errorf("Torn = %d, want %d", s.Torn, tc.torn)
			}
			if next := j.NextID(); next != tc.nextID {
				t.Errorf("NextID = %d, want %d", next, tc.nextID)
			}
			for _, e := range j.Recovered() {
				if seq, _ := e.Rec.Tag("seq"); uint64(seq) != e.ID {
					t.Errorf("recovered id %d carries seq %d", e.ID, seq)
				}
			}
		})
	}
}

// TestAckCoversOnlyEarlierAccepts: an ack covers the accepts of its id
// that precede it in the journal, never one written after it. The journal
// never writes such an ack itself; the rule keeps replay from losing a
// later accept, and keeps truncating the ack's segment from changing what
// the next Open recovers.
func TestAckCoversOnlyEarlierAccepts(t *testing.T) {
	fs := newMemFS()
	fs.files[segName(0)] = ackFrame(7)
	fs.files[segName(1)] = slices.Concat(
		acceptFrame(7, "", fresh(t, rec(7))),
		acceptFrame(8, "", fresh(t, rec(8))))
	for round := 0; round < 2; round++ {
		j := openMem(t, fs, 0)
		if got := entryIDs(j.Recovered()); !slices.Equal(got, []uint64{7, 8}) {
			t.Errorf("open %d recovered %v, want [7 8]", round+1, got)
		}
		j.Close()
	}
}

func segName(i int) string { return fmt.Sprintf("seg-%06d.wal", i) }

// fresh is r's record bytes as the first accept of a codec session.
func fresh(t *testing.T, r *record.Record) []byte {
	t.Helper()
	b, err := dist.NewCodec().Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpenFullyAckedAllocs bounds what reopening a journal costs when the
// previous session acked everything it accepted: replay decodes no record,
// so its allocations must not grow with the record count.
func TestOpenFullyAckedAllocs(t *testing.T) {
	const n = 8192
	fs := newMemFS()
	j := openMem(t, fs, 0)
	var batch []uint64
	for i := 0; i < n; i++ {
		id, err := j.Append("", rec(i))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if batch = append(batch, id); len(batch) == 8 {
			if err := j.Ack(batch); err != nil {
				t.Fatalf("Ack: %v", err)
			}
			batch = batch[:0]
		}
	}
	j.Close()
	fs.frozen = true
	allocs := testing.AllocsPerRun(5, func() {
		j := openMem(t, fs, 0)
		if len(j.Recovered()) != 0 || j.NextID() != n+1 {
			t.Fatalf("recovered %d, NextID %d; want 0, %d", len(j.Recovered()), j.NextID(), n+1)
		}
		j.Close()
	})
	if allocs > n/32 {
		t.Errorf("Open of %d fully acked accepts allocated %.0f times, want <= %d", n, allocs, n/32)
	}
	t.Logf("Open of %d fully acked accepts: %.0f allocs", n, allocs)
}
