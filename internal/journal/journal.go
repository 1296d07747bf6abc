// Package journal implements the runtime's at-least-once durability log: a
// segmented append-only journal of ingress records, each assigned a
// monotonic delivery id when accepted. The runtime acks an id once every
// record descended from it has left the network (delivered, dead-lettered
// or sanctioned-dropped); records whose ids were never acked are recovered
// on the next Open and replayed, which is what turns a crash into duplicate
// work instead of lost records.
//
// # On-disk format
//
// A journal directory holds numbered segment files (seg-NNNNNN.wal). Each
// segment is a sequence of length-prefixed frames:
//
//	u32 payload length (LE) | u32 CRC-32 (IEEE) of payload | payload
//
// The payload's first byte discriminates the entry:
//
//	'A' (accept): u64 delivery id | u16 meta length | meta | record bytes
//	'K' (ack):    u16 count | count × u64 delivery id
//
// Record bytes use the stateful dist codec — one codec session per
// segment, so every segment is self-contained and replayable in isolation.
// A frame that fails its CRC (or is cut short) ends the readable prefix of
// its segment: a torn tail from a crash mid-write costs the torn frame
// only, never the segment.
//
// # Replay
//
// Open decodes only what it returns. A first pass checks every frame's
// length and CRC, collects the acks and takes NextID from the accept
// headers; a second decodes each segment's accepts up to the last one not
// yet acked (earlier ones too, for the labels they define inline), so a
// segment whose accepts are all acked costs a CRC pass and no decoding.
// An ack covers the accepts of its id that precede it. A CRC-valid accept
// whose record bytes fail to decode is a codec-session break: it counts as
// torn and ends its segment's accepts where replay decodes it, while
// frames replay does not need are checked by length and CRC only. Acks
// that passed their CRC stay honoured; they can only drop an accept that
// was completed, never lose one that was not.
//
// Segments rotate at Config.SegmentBytes; a sealed segment whose accepts
// are all acked is deleted (truncation), so steady-state disk usage is
// bounded by the in-flight window, not history — except for the newest
// segment that holds the highest delivery id handed out, which is kept
// until a later accept exists: it is what keeps the next Open from handing
// that id out again. A session that appends deletes it at its first ack.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"time"

	"snet/internal/dist"
	"snet/internal/record"
)

const segPrefix = "seg-"

// frameHeader is the per-frame overhead: u32 length plus u32 CRC.
const frameHeader = 8

// maxFrame bounds a single frame so a corrupt length prefix cannot ask the
// replayer to buffer gigabytes; generously above any real ingress record.
const maxFrame = 64 << 20

// FsyncPolicy selects when appended frames are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncNever leaves flushing to the OS (and Close): cheapest, loses
	// the tail of the page cache on power failure — but never on process
	// crash, the failure mode this journal primarily defends.
	FsyncNever FsyncPolicy = iota
	// FsyncBatch syncs when the configured interval has elapsed since the
	// last sync, amortizing the fsync over the appends in between.
	FsyncBatch
	// FsyncAlways syncs every append before it is acknowledged.
	FsyncAlways
)

// String names the policy (used by benchmarks and diagnostics).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	}
	return "never"
}

// DefaultSegmentBytes is the rotation threshold when Config leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 4 << 20

// DefaultFsyncInterval is the FsyncBatch interval when Config leaves
// FsyncInterval zero.
const DefaultFsyncInterval = 25 * time.Millisecond

// Config parameterizes Open.
type Config struct {
	// Dir is the journal directory; ignored when FS is set.
	Dir string
	// FS overrides the filesystem (fault injection, tests); nil selects
	// DirFS(Dir).
	FS FS
	// SegmentBytes is the rotation threshold; zero selects
	// DefaultSegmentBytes.
	SegmentBytes int
	// Fsync selects the flush policy; FsyncInterval its period under
	// FsyncBatch (zero selects DefaultFsyncInterval).
	Fsync         FsyncPolicy
	FsyncInterval time.Duration
	// Clock drives the FsyncBatch interval decision; the zero value reads
	// real time.
	Clock Clock
	// Ext decodes/encodes extension field values (dist.ValueCodec), for
	// records whose fields are not wire scalars — e.g. a scene object
	// journaled by its spec.
	Ext dist.ValueCodec
}

// Entry is one recovered (accepted but never acked) record.
type Entry struct {
	// ID is the delivery id the record was accepted under.
	ID uint64
	// Meta is the opaque caller tag stored with the accept (the wire
	// coordinator stores the box name; the core ingress stores "").
	Meta string
	// Rec is the decoded record, owned by the caller.
	Rec *record.Record
}

// Stats is a snapshot of the journal's counters.
type Stats struct {
	// Appends and Acks count operations this session; Recovered and Torn
	// describe what Open found (unacked entries replayed, frames lost to
	// CRC/truncation damage).
	Appends, Acks, Recovered, Torn int
	// Segments is the live segment-file count; Unacked the accepts not
	// yet acked across all of them.
	Segments, Unacked int
}

// segState tracks one live segment's unacked accepts, the truncation unit.
type segState struct {
	name    string
	unacked map[uint64]struct{}
}

// Journal is an open journal. All methods are safe for concurrent use.
type Journal struct {
	// Concurrency: Append and Ack are called from different runtime
	// goroutines (intake pump vs outlet acker), serialized by mu.
	mu        sync.Mutex
	fs        FS
	cfg       Config
	cur       File
	curSize   int
	enc       *dist.Codec
	hw        uint64 // the highest delivery id accepted on disk: NextID is hw+1
	hwSeg     string // the newest segment holding hw's accept; never truncated
	nextSeg   int
	segs      []segState
	segOf     map[uint64]int // delivery id -> index into segs
	recovered []Entry
	lastSync  time.Time
	stats     Stats
	buf       []byte
	failed    error // sticky after an unrecoverable append failure
	closed    bool
}

// Open opens (or creates) the journal in cfg's directory, replays every
// segment to compute the unacked set — deduplicating accepts by delivery
// id, tolerating a torn tail per segment — deletes fully-acked sealed
// segments, and starts a fresh segment for this session's appends.
// Recovered entries are available from Recovered until the next Open.
// Replay decodes only the records it returns and the ones before them in
// their segment (see Replay in the package doc).
func Open(cfg Config) (*Journal, error) {
	if cfg.FS == nil {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("journal: Config needs Dir or FS")
		}
		cfg.FS = DirFS(cfg.Dir)
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = DefaultFsyncInterval
	}
	j := &Journal{fs: cfg.FS, cfg: cfg, segOf: map[uint64]int{}}
	names, err := cfg.FS.List()
	if err != nil {
		return nil, fmt.Errorf("journal: list segments: %w", err)
	}
	acked := map[uint64]int{} // delivery id -> frame ordinal of its last ack
	prefixes := make([][]byte, len(names))
	ord := 0
	for si, name := range names {
		if n, ok := segIndex(name); ok && n >= j.nextSeg {
			j.nextSeg = n + 1
		}
		data, err := cfg.FS.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("journal: read %s: %w", name, err)
		}
		j.segs = append(j.segs, segState{name: name, unacked: map[uint64]struct{}{}})
		prefixes[si] = j.scanSegment(name, data, &ord, acked)
	}
	ord = 0
	for si, prefix := range prefixes {
		j.recoverSegment(si, prefix, &ord, acked)
	}
	j.stats.Recovered = len(j.recovered)
	// Every segment is sealed at this point (the session's own segment is
	// created below), so any whose accepts are all acked is truncated, up
	// to the one holding the high-water id.
	j.truncate()
	if err := j.rotate(); err != nil {
		return nil, err
	}
	j.lastSync = cfg.Clock.Now()
	return j, nil
}

// scanSegment is replay's first pass over one segment: it checks each
// frame's length, CRC and entry header, records every ack under its
// frame ordinal (counted across segments from *ord) and advances NextID
// past every accept, noting name as the newest segment holding the highest.
// It returns the readable prefix, which ends at the first torn or corrupt
// frame (counted, not fatal).
func (j *Journal) scanSegment(name string, data []byte, ord *int, acked map[uint64]int) []byte {
	rest := data
	for len(rest) > 0 {
		p, next, ok := splitFrame(rest)
		if !ok || crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(rest[4:]) || !wellFormed(p) {
			j.stats.Torn++
			break
		}
		if p[0] == 'A' {
			if id := binary.LittleEndian.Uint64(p[1:]); id >= j.hw {
				j.hw, j.hwSeg = id, name
			}
		} else {
			cnt := int(binary.LittleEndian.Uint16(p[1:]))
			for i := 0; i < cnt; i++ {
				acked[binary.LittleEndian.Uint64(p[3+8*i:])] = *ord
			}
		}
		*ord++
		rest = next
	}
	return data[:len(data)-len(rest)]
}

// recoverSegment is replay's second pass over one segment's readable
// prefix. An accept is returned when no later ack covers it and no earlier
// accept of its id was returned. Decoding stops after the last such
// accept; a CRC-valid accept that fails to decode is a codec-session break,
// counted as torn, and ends the segment's accepts.
func (j *Journal) recoverSegment(si int, prefix []byte, ord *int, acked map[uint64]int) {
	base := *ord
	// wanted reports whether the accept of id at frame ordinal o is returned.
	wanted := func(id uint64, o int) bool {
		last, ok := acked[id]
		_, dup := j.segOf[id]
		return (!ok || last < o) && !dup
	}
	end := 0 // length of the prefix up to the last accept to return
	for rest := prefix; len(rest) > 0; *ord++ {
		p, next, _ := splitFrame(rest)
		rest = next
		if p[0] == 'A' && wanted(binary.LittleEndian.Uint64(p[1:]), *ord) {
			end = len(prefix) - len(rest)
		}
	}
	if end == 0 {
		return
	}
	dec := dist.NewCodec()
	if j.cfg.Ext != nil {
		dec.SetValueCodec(j.cfg.Ext)
	}
	for rest, o := prefix[:end], base; len(rest) > 0; o++ {
		p, next, _ := splitFrame(rest)
		rest = next
		if p[0] != 'A' {
			continue
		}
		id := binary.LittleEndian.Uint64(p[1:])
		ml := int(binary.LittleEndian.Uint16(p[9:]))
		rec, err := dec.Unmarshal(p[11+ml:])
		if err != nil {
			j.stats.Torn++
			return
		}
		if !wanted(id, o) {
			continue // decoded only for the labels it defines
		}
		j.recovered = append(j.recovered, Entry{ID: id, Meta: string(p[11 : 11+ml]), Rec: rec})
		j.segs[si].unacked[id] = struct{}{}
		j.segOf[id] = si
	}
}

// splitFrame splits data's first frame into its payload and the bytes
// after it. ok is false when the frame is cut short or its length prefix
// is impossible.
func splitFrame(data []byte) (payload, rest []byte, ok bool) {
	if len(data) < frameHeader {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(data)
	if n == 0 || n > maxFrame || int(n) > len(data)-frameHeader {
		return nil, nil, false
	}
	return data[frameHeader : frameHeader+int(n)], data[frameHeader+int(n):], true
}

// wellFormed reports whether a payload is an accept or an ack whose
// header fits in it.
func wellFormed(p []byte) bool {
	switch p[0] {
	case 'A':
		return len(p) >= 11 && len(p) >= 11+int(binary.LittleEndian.Uint16(p[9:]))
	case 'K':
		return len(p) >= 3 && len(p) >= 3+8*int(binary.LittleEndian.Uint16(p[1:]))
	}
	return false
}

// segIndex parses seg-NNNNNN.wal.
func segIndex(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, segPrefix+"%06d.wal", &n); err != nil {
		return 0, false
	}
	return n, true
}

// Recovered returns the entries accepted in earlier sessions and never
// acked, in accept order, deduplicated by delivery id. The records are
// owned by the caller; the slice is shared (do not mutate).
func (j *Journal) Recovered() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// NextID returns the delivery id the next Append will assign (0 once the
// ids are exhausted).
func (j *Journal) NextID() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hw + 1
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.Segments = len(j.segs)
	s.Unacked = len(j.segOf)
	return s
}

// Marshalable reports whether r can be journaled (its field values are
// wire scalars or covered by the configured extension codec).
func (j *Journal) Marshalable(r *record.Record) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enc.Marshalable(r)
}

// Append journals one accepted record under a fresh delivery id and
// returns the id. meta is an opaque caller tag stored with the record
// (recovered entries carry it back). The record stays the caller's.
func (j *Journal) Append(meta string, r *record.Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usable(); err != nil {
		return 0, err
	}
	if len(meta) > 0xffff {
		return 0, fmt.Errorf("journal: meta too long (%d bytes)", len(meta))
	}
	if j.hw == math.MaxUint64 {
		return 0, fmt.Errorf("journal: delivery ids exhausted")
	}
	id := j.hw + 1
	p := append(j.buf[:0], make([]byte, frameHeader)...)
	p = append(p, 'A')
	p = binary.LittleEndian.AppendUint64(p, id)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(meta)))
	p = append(p, meta...)
	p, err := j.enc.AppendMarshal(p, r)
	if err != nil {
		// The codec session may have committed label state the failed
		// frame never wrote; reseal the segment so disk and session agree.
		if rerr := j.rotate(); rerr != nil {
			j.failed = rerr
		}
		return 0, fmt.Errorf("journal: marshal record: %w", err)
	}
	// The id is consumed even when the write fails: a torn frame may still
	// replay, and reusing its id for a later record would collide with it.
	j.hw, j.hwSeg = id, j.segs[len(j.segs)-1].name
	if err := j.writeFrame(p); err != nil {
		return 0, err
	}
	j.stats.Appends++
	si := len(j.segs) - 1
	j.segs[si].unacked[id] = struct{}{}
	j.segOf[id] = si
	if j.curSize >= j.cfg.SegmentBytes {
		if err := j.rotate(); err != nil {
			j.failed = err
		}
	}
	return id, nil
}

// Ack journals the completion of the given delivery ids and truncates any
// sealed segment left fully acked. Unknown ids are recorded harmlessly
// (replay ignores acks with no matching accept).
func (j *Journal) Ack(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usable(); err != nil {
		return err
	}
	for len(ids) > 0 {
		n := len(ids)
		if n > 0xffff {
			n = 0xffff
		}
		p := append(j.buf[:0], make([]byte, frameHeader)...)
		p = append(p, 'K')
		p = binary.LittleEndian.AppendUint16(p, uint16(n))
		for _, id := range ids[:n] {
			p = binary.LittleEndian.AppendUint64(p, id)
		}
		if err := j.writeFrame(p); err != nil {
			return err
		}
		j.stats.Acks += n
		for _, id := range ids[:n] {
			if si, ok := j.segOf[id]; ok {
				delete(j.segs[si].unacked, id)
				delete(j.segOf, id)
			}
		}
		ids = ids[n:]
	}
	j.truncate()
	return nil
}

// writeFrame appends one length-prefixed CRC'd frame and applies the fsync
// policy. frame is the whole frame with frameHeader bytes reserved (and
// overwritten here) ahead of the payload; it aliases j.buf, which is
// reclaimed for the next frame. Callers hold mu. A failed or short write
// leaves an unreadable tail, so the segment is resealed (rotate) to keep
// later frames readable; if that fails too the journal is marked failed.
func (j *Journal) writeFrame(frame []byte) error {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	j.buf = frame[:0] // reclaim the scratch for the next frame
	n, err := j.cur.Write(frame)
	j.curSize += n
	if err == nil && n < len(frame) {
		err = fmt.Errorf("journal: short write (%d of %d bytes)", n, len(frame))
	}
	if err != nil {
		if rerr := j.rotate(); rerr != nil {
			j.failed = rerr
		}
		return err
	}
	switch j.cfg.Fsync {
	case FsyncAlways:
		return j.cur.Sync()
	case FsyncBatch:
		if now := j.cfg.Clock.Now(); now.Sub(j.lastSync) >= j.cfg.FsyncInterval {
			j.lastSync = now
			return j.cur.Sync()
		}
	}
	return nil
}

// rotate seals the current segment and opens the next one with a fresh
// codec session. Callers hold mu.
func (j *Journal) rotate() error {
	if j.cur != nil {
		j.cur.Sync()
		j.cur.Close()
		j.cur = nil
		j.truncate()
	}
	name := fmt.Sprintf(segPrefix+"%06d.wal", j.nextSeg)
	f, err := j.fs.OpenAppend(name)
	if err != nil {
		return fmt.Errorf("journal: open segment %s: %w", name, err)
	}
	j.nextSeg++
	j.cur = f
	j.curSize = 0
	j.segs = append(j.segs, segState{name: name, unacked: map[uint64]struct{}{}})
	j.enc = dist.NewCodec()
	if j.cfg.Ext != nil {
		j.enc.SetValueCodec(j.cfg.Ext)
	}
	return nil
}

// truncate removes leading sealed segments whose accepts are all acked, up
// to the one holding the high-water id's accept. Callers hold mu. Removing a
// segment invalidates the segOf indices, so surviving segments are
// reindexed.
func (j *Journal) truncate() {
	sealed := len(j.segs)
	if j.cur != nil {
		sealed-- // the open segment is never truncated
	}
	drop := 0
	for drop < sealed && len(j.segs[drop].unacked) == 0 && j.segs[drop].name != j.hwSeg {
		if err := j.fs.Remove(j.segs[drop].name); err != nil {
			break
		}
		drop++
	}
	if drop == 0 {
		return
	}
	j.segs = append(j.segs[:0], j.segs[drop:]...)
	for id, si := range j.segOf {
		j.segOf[id] = si - drop
	}
}

// usable reports the sticky failure state. Callers hold mu.
func (j *Journal) usable() error {
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	return j.failed
}

// Sync forces appended frames to stable storage regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.cur == nil {
		return nil
	}
	return j.cur.Sync()
}

// Close syncs and closes the journal. Further Appends and Acks fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.cur == nil {
		return nil
	}
	serr := j.cur.Sync()
	cerr := j.cur.Close()
	j.cur = nil
	if serr != nil {
		return serr
	}
	return cerr
}
