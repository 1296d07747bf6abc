package journal_test

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"snet/internal/journal"
	"snet/internal/record"
)

// liveSegments journals a short history with mixed label sets, partial
// acks and rotations, and returns its first two segments' bytes.
func liveSegments(t testing.TB) (seg0, seg1 []byte) {
	fs := newMemFS()
	j := openMem(t, fs, 160)
	var ids []uint64
	for i := 0; i < 8; i++ {
		r := rec(i)
		if i%3 == 1 {
			r = record.Build().F("other", int64(i)).T("k", i).BT("b", 2).Rec()
		}
		id, err := j.Append("box", r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i%2 == 1 {
			if err := j.Ack(ids[i-1 : i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	names, _ := fs.List()
	if len(names) < 2 {
		t.Fatalf("%d segments, want at least 2", len(names))
	}
	return fs.files[names[0]], fs.files[names[1]]
}

// fixCRCs rewrites each frame's CRC to match its payload, so the fuzzer
// explores entry headers and record bytes instead of stopping at the CRC.
func fixCRCs(b []byte) []byte {
	b = slices.Clone(b)
	for off := 0; len(b)-off >= 8; {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		if n > len(b)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(b[off+4:], crc32.ChecksumIEEE(b[off+8:off+8+n]))
		off += 8 + n
	}
	return b
}

// FuzzJournal opens arbitrary bytes as a journal of one segment (seg1
// empty) or two. With fix set, every frame's CRC is made to match first.
// Open must never panic, and a second Open after Close must recover the
// same entries in the same order: replay's truncation may not change what
// the next replay finds. Then sessions that ack what they append, append
// nothing, and leave what they append unacked follow one another: a later
// session never hands out a delivery id that replay returned or that an
// earlier session handed out. Corpus: testdata/fuzz/FuzzJournal, plus the
// segments the journal writes today.
func FuzzJournal(f *testing.F) {
	seg0, seg1 := liveSegments(f)
	f.Add(seg0, seg1, true)
	f.Fuzz(func(t *testing.T, seg0, seg1 []byte, fix bool) {
		fs := newMemFS()
		for i, seg := range [][]byte{seg0, seg1} {
			if i == 1 && len(seg) == 0 {
				break
			}
			if fix {
				seg = fixCRCs(seg)
			}
			fs.files[segName(i)] = seg
		}
		var first []journal.Entry
		for round := 0; round < 2; round++ {
			j, err := journal.Open(journal.Config{FS: fs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			got := j.Recovered()
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for _, e := range got {
				if e.Rec == nil {
					t.Fatalf("recovered id %d without a record", e.ID)
				}
			}
			if round == 0 {
				first = got
				continue
			}
			if !slices.EqualFunc(first, got, func(a, b journal.Entry) bool {
				return a.ID == b.ID && a.Meta == b.Meta && a.Rec.String() == b.Rec.String()
			}) {
				t.Fatalf("first Open recovered %v, second %v", entryIDs(first), entryIDs(got))
			}
		}
		seen := map[uint64]bool{}
		for _, e := range first {
			seen[e.ID] = true
		}
		for session, kind := range []string{"ack", "none", "unacked", "ack", "none", "ack"} {
			j, err := journal.Open(journal.Config{FS: fs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for i := 0; kind != "none" && i < 2; i++ {
				id, err := j.Append("", rec(i))
				if err != nil {
					break // delivery ids exhausted
				}
				if seen[id] {
					t.Fatalf("session %d handed out id %d again", session, id)
				}
				seen[id] = true
				if kind == "ack" {
					if err := j.Ack([]uint64{id}); err != nil {
						t.Fatalf("Ack: %v", err)
					}
				}
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	})
}
