package journal_test

import (
	"strings"
	"testing"
	"time"

	"snet/internal/faultfs"
	"snet/internal/journal"
	"snet/internal/record"
)

func rec(i int) *record.Record {
	return record.New().SetField("payload", "value").SetTag("seq", i)
}

func openDir(t *testing.T, dir string, mut func(*journal.Config)) *journal.Journal {
	t.Helper()
	cfg := journal.Config{Dir: dir}
	if mut != nil {
		mut(&cfg)
	}
	j, err := journal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func TestAppendRecoverAck(t *testing.T) {
	dir := t.TempDir()
	j := openDir(t, dir, nil)
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, err := j.Append("box", rec(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if err := j.Ack([]uint64{ids[0], ids[2]}); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := openDir(t, dir, nil)
	defer j2.Close()
	got := j2.Recovered()
	if len(got) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(got))
	}
	wantIDs := []uint64{ids[1], ids[3], ids[4]}
	for i, e := range got {
		if e.ID != wantIDs[i] {
			t.Errorf("recovered[%d].ID = %d, want %d", i, e.ID, wantIDs[i])
		}
		if e.Meta != "box" {
			t.Errorf("recovered[%d].Meta = %q, want box", i, e.Meta)
		}
		if v, _ := e.Rec.Field("payload"); v != "value" {
			t.Errorf("recovered[%d] payload = %v", i, v)
		}
		if seq, _ := e.Rec.Tag("seq"); seq != int(wantIDs[i]-1) {
			t.Errorf("recovered[%d] seq = %d, want %d", i, seq, wantIDs[i]-1)
		}
	}
	if next := j2.NextID(); next != ids[4]+1 {
		t.Errorf("NextID = %d, want %d", next, ids[4]+1)
	}
}

func TestRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	fs := journal.DirFS(dir)
	j := openDir(t, dir, func(c *journal.Config) { c.SegmentBytes = 256 })
	var ids []uint64
	for i := 0; i < 50; i++ {
		id, err := j.Append("", rec(i))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		ids = append(ids, id)
	}
	if s := j.Stats(); s.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", s.Segments)
	}
	// Acking everything lets every sealed segment truncate.
	if err := j.Ack(ids); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if s := j.Stats(); s.Segments != 1 || s.Unacked != 0 {
		t.Fatalf("after full ack: %+v, want 1 segment, 0 unacked", s)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 1 {
		t.Fatalf("disk has %d segments after truncation: %v", len(names), names)
	}

	j2 := openDir(t, dir, nil)
	defer j2.Close()
	if got := j2.Recovered(); len(got) != 0 {
		t.Fatalf("recovered %d entries after full ack, want 0", len(got))
	}
	if next := j2.NextID(); next != ids[49]+1 {
		t.Errorf("NextID = %d, want %d (ids survive truncation)", next, ids[49]+1)
	}
}

func TestTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	j := openDir(t, dir, func(c *journal.Config) { c.FS = ffs })
	for i := 0; i < 3; i++ {
		if _, err := j.Append("", rec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Cut the disk mid-frame: the 4th append "succeeds" (the crashed
	// kernel lied) but only half its frame reaches the platter.
	ffs.CutAfter(20)
	if _, err := j.Append("", rec(3)); err != nil {
		t.Fatalf("Append over cut: %v (the cut write must look successful)", err)
	}
	// No Close: this is a crash.

	j2 := openDir(t, dir, func(c *journal.Config) { c.FS = faultfs.New(journal.DirFS(dir)) })
	defer j2.Close()
	got := j2.Recovered()
	if len(got) != 3 {
		t.Fatalf("recovered %d entries past torn tail, want 3", len(got))
	}
	if s := j2.Stats(); s.Torn != 1 {
		t.Errorf("Torn = %d, want 1", s.Torn)
	}
	if next := j2.NextID(); next != 4 {
		t.Errorf("NextID = %d, want 4", next)
	}
}

func TestShortWriteSurfacesAndReseals(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	j := openDir(t, dir, func(c *journal.Config) { c.FS = ffs })
	if _, err := j.Append("", rec(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.FailWrite(1, 7) // next frame: 7 bytes land, then the error
	if _, err := j.Append("", rec(1)); err == nil {
		t.Fatal("Append over short write succeeded, want error")
	}
	// The journal resealed onto a fresh segment; later appends must both
	// succeed and survive replay (the torn frame stays quarantined in the
	// sealed segment).
	id3, err := j.Append("", rec(2))
	if err != nil {
		t.Fatalf("Append after reseal: %v", err)
	}
	j.Close()

	j2 := openDir(t, dir, nil)
	defer j2.Close()
	got := j2.Recovered()
	if len(got) != 2 {
		t.Fatalf("recovered %d entries, want 2 (short-written frame dropped)", len(got))
	}
	if got[1].ID != id3 {
		t.Errorf("recovered[1].ID = %d, want %d", got[1].ID, id3)
	}
}

func TestFsyncAlwaysSurfacesSyncError(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	j := openDir(t, dir, func(c *journal.Config) {
		c.FS = ffs
		c.Fsync = journal.FsyncAlways
	})
	if _, err := j.Append("", rec(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.FailSync(1)
	if _, err := j.Append("", rec(1)); err == nil {
		t.Fatal("Append with failing fsync succeeded, want error")
	}
}

func TestFsyncBatchUsesInjectedClock(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	now := time.Unix(1000, 0)
	j := openDir(t, dir, func(c *journal.Config) {
		c.FS = ffs
		c.Fsync = journal.FsyncBatch
		c.FsyncInterval = 100 * time.Millisecond
		c.Clock = journal.Clock{NowFn: func() time.Time { return now }}
	})
	base := ffs.Syncs()
	for i := 0; i < 10; i++ {
		if _, err := j.Append("", rec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := ffs.Syncs(); got != base {
		t.Fatalf("appends within the interval synced %d times, want 0", got-base)
	}
	now = now.Add(150 * time.Millisecond)
	if _, err := j.Append("", rec(10)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := ffs.Syncs(); got != base+1 {
		t.Fatalf("append past the interval synced %d times, want 1", got-base)
	}
	j.Close()
}

func TestDuplicateIDDedupedOnReplay(t *testing.T) {
	// Two sessions can journal the same id only through fault windows;
	// replay must keep the first occurrence.
	dir := t.TempDir()
	j := openDir(t, dir, nil)
	id, err := j.Append("first", rec(0))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	j.Close()
	j2 := openDir(t, dir, nil)
	if n := len(j2.Recovered()); n != 1 {
		t.Fatalf("recovered %d, want 1", n)
	}
	j2.Close()
	_ = id
}

func TestBackoff(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		base, max time.Duration
		n         int
		want      time.Duration
	}{
		{0, 0, 1, 0},
		{10 * ms, 0, 1, 10 * ms},
		{10 * ms, 0, 3, 40 * ms},
		{10 * ms, 25 * ms, 3, 25 * ms},
		{10 * ms, 0, 0, 0},
	}
	for _, c := range cases {
		if got := journal.Backoff(c.base, c.max, c.n); got != c.want {
			t.Errorf("Backoff(%v,%v,%d) = %v, want %v", c.base, c.max, c.n, got, c.want)
		}
	}
}

func TestMetaTooLong(t *testing.T) {
	j := openDir(t, t.TempDir(), nil)
	defer j.Close()
	if _, err := j.Append(strings.Repeat("x", 70000), rec(0)); err == nil {
		t.Fatal("oversized meta accepted")
	}
}

// TestDeliveryIDsNeverRepeat: session 1 appends and acks ids 1 and 2;
// session 2 opens — truncation deletes the segment that held them — and
// appends nothing; session 3 still hands out 3, not 1 again. The same holds
// when the truncation happens inside a session: the newest accept's segment
// is sealed by rotation and deleted by its ack while the open segment holds
// no accept.
func TestDeliveryIDsNeverRepeat(t *testing.T) {
	for _, segBytes := range []int{0, 1} {
		fs := newMemFS()
		var last uint64
		for session := 1; session <= 3; session++ {
			j := openMem(t, fs, segBytes)
			if len(j.Recovered()) != 0 {
				t.Fatalf("segment bytes %d, session %d: recovered %v", segBytes, session, entryIDs(j.Recovered()))
			}
			if session == 2 {
				j.Close()
				continue
			}
			for i := 0; i < 2; i++ {
				id, err := j.Append("", rec(i))
				if err != nil {
					t.Fatal(err)
				}
				if id != last+1 {
					t.Fatalf("segment bytes %d, session %d handed out id %d after %d", segBytes, session, id, last)
				}
				last = id
				if err := j.Ack([]uint64{id}); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()
		}
	}
}
