// The record wire codec: what a record costs to move between cluster nodes,
// and — for serializable field values — the bytes that actually move over a
// socket (internal/wire) or into a journal segment (internal/journal).
//
// Tags and binding tags are integers and always serialize exactly. Field
// values are opaque to the coordination layer; the codec serializes the
// common scalar kinds (nil, bool, integers, float64, string, []byte)
// exactly, hands registered application types to a ValueCodec, and sizes
// everything else with the mpi.ByteSizer conventions (ByteSize when
// declared, a fixed estimate otherwise), so the S-Net cluster and the MPI
// baseline charge identical byte counts for the same payloads.
//
// Labels are interned against a negotiated per-link table. The runtime
// already represents labels as interned symbols (record.Sym): each side of
// a link keeps a label table, and a label crosses the wire as a varint
// symbol reference — its name travels exactly once per link, inline with
// the first record that uses it. For the steady-state traffic of a pipeline
// (thousands of records over a fixed label vocabulary) a label costs one or
// two bytes per record instead of its name, which is the wire size the
// Cluster's transfer accounting charges.
//
// Symbols are process-local, so the encoder writes its own record.Sym
// values and the decoder resolves them purely through the negotiated
// table; the two processes never need to agree on symbol numbering. A
// Codec is one direction of one link: pair the sender's Codec with the
// receiver's, and feed them the same record sequence.
//
// Invariant: for a record whose field values are all built-in scalars,
// c.Size(r) == len(c.Marshal(r)) on a codec in the same negotiation state.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"snet/internal/mpi"
	"snet/internal/record"
)

// codecVersion is the wire-format version byte leading every message. It is
// 2: version 1, a stateless format that shipped every label by name, is
// retired and its buffers are rejected.
const codecVersion = 2

// Field-value type codes on the wire. tExt carries a value encoded by the
// link's ValueCodec: a u16-length-prefixed encoding name followed by a
// u32-length-prefixed payload.
const (
	tNil byte = iota
	tBool
	tInt
	tFloat
	tString
	tBytes
	tExt
)

// Record kinds on the wire.
const (
	kData    byte = 0
	kTrigger byte = 1
)

// kBatch is the message kind of a record batch (MarshalBatch): where a
// single-record message carries kData or kTrigger after the version byte, a
// batch message carries kBatch, a u16 record count, and then one kind byte
// plus body per record — the layout AccountBatch sizes.
const kBatch byte = 2

// ValueCodec extends a link codec to field values beyond the built-in
// scalar kinds: a transport (internal/wire) registers application types so
// records whose fields are domain values (scenes, image chunks) gain a
// real wire form. Handles reports whether Encode accepts values of v's
// dynamic type; Decode reverses Encode given the same name. Encode must
// not fail for a value Handles accepted — a mid-message encode failure
// forces the transport to drop the link (the negotiation state is already
// advanced). Built-in scalar kinds always use the built-in encoding; the
// extension is consulted only for values wireSerializable rejects.
//
// Size and Account keep charging mpi.PayloadBytes-convention estimates for
// extension values (the model's accounting stays comparable across
// platforms); only Marshal/MarshalBatch produce the extension's real
// encoding, so the Size(r) == len(Marshal(r)) invariant is limited to
// records whose fields are built-in scalars.
type ValueCodec interface {
	Handles(v any) bool
	Encode(v any) (name string, data []byte, err error)
	Decode(name string, data []byte) (any, error)
}

// Codec is a stateful encoder/decoder for one direction of one link. The
// zero value is ready to use. All methods are safe for concurrent use (the
// Cluster shares per-link codecs between transferring goroutines).
type Codec struct {
	mu      sync.Mutex
	sent    []bool                // encoder side: sym already defined to the peer
	names   map[uint64]record.Sym // decoder side: wire sym -> interned label
	predefs []record.Sym          // predict-mode sizing scratch, reused under mu
	ext     ValueCodec            // optional extension for non-scalar field values
}

// NewCodec returns a fresh link codec with an empty negotiated table.
func NewCodec() *Codec { return &Codec{} }

// SetValueCodec registers an extension codec for non-scalar field values.
// Register it on both endpoints of a link before the link carries traffic;
// a record that encoded through an extension fails to decode on a peer
// whose codec lacks it.
func (c *Codec) SetValueCodec(x ValueCodec) {
	c.mu.Lock()
	c.ext = x
	c.mu.Unlock()
}

// Reset discards the link's negotiated label table on both the encoder and
// the decoder side, returning the codec to its fresh-link state (the
// registered ValueCodec is kept). A transport that loses its connection
// must Reset both directions' codecs before reusing them on a new
// connection: after a partial send, symbols the encoder marked as defined
// may never have reached the peer, and decoding against the stale table
// would resolve references to the wrong names or reject them. Quiesce the
// link first — a record accounted or marshalled concurrently with Reset
// lands in either the old or the new negotiation era.
func (c *Codec) Reset() {
	c.mu.Lock()
	clear(c.sent)
	clear(c.names)
	c.mu.Unlock()
}

// knows reports and records whether the symbol has been defined on this
// link; the first call for a symbol returns false and marks it defined.
// Callers hold c.mu.
func (c *Codec) knows(id record.Sym) bool {
	if int(id) >= len(c.sent) {
		grown := make([]bool, int(id)+16)
		copy(grown, c.sent)
		c.sent = grown
	}
	if c.sent[id] {
		return true
	}
	c.sent[id] = true
	return false
}

// peek reports whether the symbol has been defined on this link without
// changing the negotiation state. Callers hold c.mu.
func (c *Codec) peek(id record.Sym) bool {
	return int(id) < len(c.sent) && c.sent[id]
}

// sizer sizes one record's label references against a codec. In commit
// mode it advances the codec's negotiation state exactly like writing
// would; in predict mode it leaves the codec untouched and instead tracks
// the names this record would define inline, so a name appearing in more
// than one label class of the same record is charged once — matching what
// Marshal actually emits.
type sizer struct {
	c       *Codec
	commit  bool
	defined []record.Sym // predict mode: defined earlier in this record
}

func (s *sizer) labelRefSize(id record.Sym) int {
	ref := uint64(uint32(id)) << 1
	var known bool
	if s.commit {
		known = s.c.knows(id)
	} else {
		known = s.c.peek(id)
		if !known {
			for _, d := range s.defined {
				if d == id {
					known = true
					break
				}
			}
			if !known {
				s.defined = append(s.defined, id)
			}
		}
	}
	if known {
		return uvarintLen(ref)
	}
	name := record.SymName(id)
	return uvarintLen(ref|1) + uvarintLen(uint64(len(name))) + len(name)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// wireSerializable reports whether appendValue can encode the value,
// including the size limits, so a Codec.Marshal that passes validation
// cannot fail mid-encode.
func wireSerializable(v any) bool {
	switch d := v.(type) {
	case nil, bool, int, int64, float64:
		return true
	case string:
		return len(d) <= math.MaxUint32
	case []byte:
		return len(d) <= math.MaxUint32
	default:
		return false
	}
}

// appendLabelRef writes one label reference, defining the name inline on
// first use. Callers hold c.mu.
func (c *Codec) appendLabelRef(buf []byte, id record.Sym) []byte {
	ref := uint64(uint32(id)) << 1
	if c.knows(id) {
		return binary.AppendUvarint(buf, ref)
	}
	name := record.SymName(id)
	buf = binary.AppendUvarint(buf, ref|1)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

// Size returns the wire size in bytes the next Marshal of r on this link
// would produce, without changing the negotiated state — safe to combine
// with a subsequent Marshal of the same record. Non-serializable field
// values are sized by mpi.PayloadBytes.
func (c *Codec) Size(r *record.Record) int {
	return c.size(r, false)
}

// Account sizes the record like Size but also commits the label
// negotiation, exactly as if the record had been marshalled and shipped —
// the first record that uses a label pays for its name, subsequent records
// pay only the symbol reference. Cluster.Transfer uses Account for traffic
// accounting of transfers that never materialize bytes. Mixing Account and
// Marshal for the same logical send double-negotiates: use one or the
// other per record.
func (c *Codec) Account(r *record.Record) int {
	return c.size(r, true)
}

func (c *Codec) size(r *record.Record, commit bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return 2 + c.sizeBody(r, commit) // version, kind
}

// sizeBody sizes one record without its per-message framing (version and
// kind bytes). Callers hold c.mu. Predict-mode sizing tracks the labels
// the record would define inline in a codec-owned scratch slice (safe
// under mu), so repeated Size calls on a hot link allocate nothing.
func (c *Codec) sizeBody(r *record.Record, commit bool) int {
	s := sizer{c: c, commit: commit, defined: c.predefs[:0]}
	defer func() { c.predefs = s.defined[:0] }()
	n := 6 // three u16 label counts
	r.VisitTagSyms(func(id record.Sym, _ int) {
		n += s.labelRefSize(id) + 8
	})
	r.VisitBTagSyms(func(id record.Sym, _ int) {
		n += s.labelRefSize(id) + 8
	})
	r.VisitFieldSyms(func(id record.Sym, v any) {
		n += s.labelRefSize(id) + 1 + valueSize(v)
	})
	return n
}

// valueSize is the encoded payload size after the type-code byte.
func valueSize(v any) int {
	switch d := v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int, int64, float64:
		return 8
	case string:
		return 4 + len(d)
	case []byte:
		return 4 + len(d)
	default:
		return mpi.PayloadBytes(v)
	}
}

// AccountBatch sizes a whole stream batch as one wire message, committing
// the label negotiation for every record: the message carries one frame
// (version, batch kind, u16 record count) plus, per record, a kind byte
// and the record body — the per-record version byte of single-record
// messages is amortized away, and the negotiated label table is consulted
// under a single lock acquisition for the entire batch.
// Cluster.TransferBatch uses it for traffic accounting of batched hops.
func (c *Codec) AccountBatch(rs []*record.Record) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 4 // version, batch kind, u16 record count
	for _, r := range rs {
		n += 1 + c.sizeBody(r, true) // kind byte + body
	}
	return n
}

// checkMarshalable validates a record against the wire limits and the
// serializable-value set (built-in scalars plus the registered ValueCodec)
// before any negotiation state is touched: a mid-encode failure after label
// definitions were marked as sent would desync the link (the peer never
// receives the dropped buffer). Callers hold c.mu.
func (c *Codec) checkMarshalable(r *record.Record) error {
	if r.NumTags() > math.MaxUint16 || r.NumBTags() > math.MaxUint16 ||
		r.NumFields() > math.MaxUint16 {
		return fmt.Errorf(
			"dist: record with %d fields, %d tags, %d btags exceeds the wire limit of %d labels per kind",
			r.NumFields(), r.NumTags(), r.NumBTags(), math.MaxUint16)
	}
	var preErr error
	r.VisitFieldSyms(func(id record.Sym, v any) {
		if preErr == nil && !wireSerializable(v) && !(c.ext != nil && c.ext.Handles(v)) {
			preErr = fmt.Errorf("dist: field %q value of type %T is not wire-serializable",
				record.SymName(id), v)
		}
	})
	return preErr
}

// Marshalable reports whether Marshal (or a MarshalBatch containing r)
// would succeed on this link: label counts within the wire limits and
// every field value either a built-in scalar kind or accepted by the
// registered ValueCodec. It never changes the negotiation state — a
// transport uses it to decide whether an execution can ship at all before
// committing a slot to the remote path.
func (c *Codec) Marshalable(r *record.Record) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkMarshalable(r) == nil
}

// appendRecord writes one record's kind byte and body (label counts, label
// references, values), advancing the negotiation state. Callers hold c.mu
// and have validated the record with checkMarshalable.
func (c *Codec) appendRecord(buf []byte, r *record.Record) ([]byte, error) {
	k := kData
	if !r.IsData() {
		k = kTrigger
	}
	buf = append(buf, k)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(r.NumTags()))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(r.NumBTags()))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(r.NumFields()))
	var tagErr error
	appendTag := func(id record.Sym, v int) {
		buf = c.appendLabelRef(buf, id)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	r.VisitTagSyms(appendTag)
	r.VisitBTagSyms(appendTag)
	r.VisitFieldSyms(func(id record.Sym, v any) {
		if tagErr != nil {
			return
		}
		buf = c.appendLabelRef(buf, id)
		if !wireSerializable(v) && c.ext != nil && c.ext.Handles(v) {
			buf, tagErr = c.appendExt(buf, id, v)
			return
		}
		buf, tagErr = appendValue(buf, record.SymName(id), v)
	})
	if tagErr != nil {
		return nil, tagErr
	}
	return buf, nil
}

// appendExt writes one extension-encoded field value: the tExt type code, a
// u16-length-prefixed encoding name, and a u32-length-prefixed payload.
// Callers hold c.mu.
func (c *Codec) appendExt(buf []byte, id record.Sym, v any) ([]byte, error) {
	name, data, err := c.ext.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("dist: field %q extension encode: %w", record.SymName(id), err)
	}
	if len(name) > math.MaxUint16 {
		return nil, fmt.Errorf("dist: field %q extension name of %d bytes exceeds the wire limit",
			record.SymName(id), len(name))
	}
	if len(data) > math.MaxUint32 {
		return nil, fmt.Errorf("dist: field %q extension payload of %d bytes exceeds the wire limit",
			record.SymName(id), len(data))
	}
	buf = append(buf, tExt)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	return append(buf, data...), nil
}

// appendValue writes one built-in scalar field value: its type code and
// payload.
func appendValue(buf []byte, label string, v any) ([]byte, error) {
	switch d := v.(type) {
	case nil:
		return append(buf, tNil), nil
	case bool:
		b := byte(0)
		if d {
			b = 1
		}
		return append(buf, tBool, b), nil
	case int:
		buf = append(buf, tInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(int64(d))), nil
	case int64:
		buf = append(buf, tInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(d)), nil
	case float64:
		buf = append(buf, tFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(d)), nil
	case string:
		if len(d) > math.MaxUint32 {
			return nil, fmt.Errorf("dist: field %q string of %d bytes exceeds the wire limit", label, len(d))
		}
		buf = append(buf, tString)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d)))
		return append(buf, d...), nil
	case []byte:
		if len(d) > math.MaxUint32 {
			return nil, fmt.Errorf("dist: field %q payload of %d bytes exceeds the wire limit", label, len(d))
		}
		buf = append(buf, tBytes)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d)))
		return append(buf, d...), nil
	default:
		return nil, fmt.Errorf("dist: field %q value of type %T is not wire-serializable", label, v)
	}
}

// Marshal encodes a record against the link's negotiated label table. It
// fails on field values that are not wire-serializable (and not covered by
// the registered ValueCodec); such records can still be sized (Size) and
// transferred in-process, they just have no exact wire form.
func (c *Codec) Marshal(r *record.Record) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendMessage(make([]byte, 0, 64), r)
}

// AppendMarshal is Marshal appending the message to buf, so a caller that
// frames the message (the journal) encodes straight into its own buffer.
func (c *Codec) AppendMarshal(buf []byte, r *record.Record) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendMessage(buf, r)
}

// appendMessage appends one single-record message to buf. Callers hold
// c.mu.
func (c *Codec) appendMessage(buf []byte, r *record.Record) ([]byte, error) {
	if err := c.checkMarshalable(r); err != nil {
		return nil, err
	}
	return c.appendRecord(append(buf, codecVersion), r)
}

// MarshalBatch encodes a whole stream batch as one wire message in exactly
// the layout AccountBatch sizes: version byte, kBatch kind, u16 record
// count, then one kind byte plus body per record, all against the link's
// negotiated label table under a single lock acquisition. For records
// whose field values are built-in scalars, len(MarshalBatch(rs)) ==
// AccountBatch(rs) on a codec in the same negotiation state — the
// cross-check that keeps the transport's measured bytes comparable to the
// model's accounted bytes. Every record is validated before any
// negotiation state advances.
func (c *Codec) MarshalBatch(rs []*record.Record) ([]byte, error) {
	if len(rs) > math.MaxUint16 {
		return nil, fmt.Errorf("dist: batch of %d records exceeds the wire limit of %d", len(rs), math.MaxUint16)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rs {
		if err := c.checkMarshalable(r); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, 16+64*len(rs))
	buf = append(buf, codecVersion, kBatch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rs)))
	var err error
	for _, r := range rs {
		if buf, err = c.appendRecord(buf, r); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// UnmarshalBatch decodes a MarshalBatch message, extending the link's
// label table with any inline definitions, and returns the records in
// batch order.
func (c *Codec) UnmarshalBatch(data []byte) ([]*record.Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.names == nil {
		c.names = make(map[uint64]record.Sym)
	}
	d := &decoder{buf: data}
	version, err := d.byte()
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("dist: wire version %d, want %d", version, codecVersion)
	}
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	if kind != kBatch {
		return nil, fmt.Errorf("dist: message kind %d is not a batch; use Unmarshal", kind)
	}
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	outs := make([]*record.Record, 0, n)
	for i := 0; i < int(n); i++ {
		r, err := decodeRecord(d, c.names, c.ext)
		if err != nil {
			return nil, fmt.Errorf("dist: batch record %d: %w", i, err)
		}
		outs = append(outs, r)
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("dist: %d trailing bytes after batch", len(d.buf)-d.off)
	}
	return outs, nil
}

// Unmarshal decodes a single-record message, extending the link's label
// table with any inline definitions. The wire format keeps one integer
// kind, so int and int64 field values both decode as int. A symbol
// reference that was never defined on this link is an error — the buffer
// belongs to a different link or records were decoded out of order.
func (c *Codec) Unmarshal(data []byte) (*record.Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.names == nil {
		c.names = make(map[uint64]record.Sym)
	}
	d := &decoder{buf: data}
	version, err := d.byte()
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("dist: wire version %d, want %d", version, codecVersion)
	}
	r, err := decodeRecord(d, c.names, c.ext)
	if err != nil {
		return nil, err
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("dist: %d trailing bytes after record", len(d.buf)-d.off)
	}
	return r, nil
}

// decodeRecord decodes one kind byte plus record body from d — the unit
// a single-record message carries once and a batch message repeats.
func decodeRecord(d *decoder, names map[uint64]record.Sym, ext ValueCodec) (*record.Record, error) {
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	var r *record.Record
	switch kind {
	case kData:
		r = record.New()
	case kTrigger:
		r = record.NewTrigger()
	case kBatch:
		return nil, fmt.Errorf("dist: batch encoding; decode with UnmarshalBatch")
	default:
		return nil, fmt.Errorf("dist: unknown record kind %d", kind)
	}
	nTags, err := d.u16()
	if err != nil {
		return nil, err
	}
	nBTags, err := d.u16()
	if err != nil {
		return nil, err
	}
	nFields, err := d.u16()
	if err != nil {
		return nil, err
	}
	// Labels resolve to interned Syms: a definition interns its name once,
	// when it first crosses the link, and every later reference is a map
	// hit returning the Sym directly — the record accessors below never
	// touch label strings on the decode hot path.
	label := func() (record.Sym, error) {
		ref, err := d.uvarint()
		if err != nil {
			return record.NoSym, err
		}
		sym := ref >> 1
		if ref&1 == 0 {
			id, ok := names[sym]
			if !ok {
				return record.NoSym, fmt.Errorf("dist: undefined label symbol %d on this link", sym)
			}
			return id, nil
		}
		n, err := d.uvarint()
		if err != nil {
			return record.NoSym, err
		}
		if n > uint64(len(d.buf)-d.off) { // before the cast, which wraps
			return record.NoSym, fmt.Errorf("dist: label name of %d bytes at byte %d exceeds the buffer", n, d.off)
		}
		b, err := d.take(int(n))
		if err != nil {
			return record.NoSym, err
		}
		id := record.Intern(string(b))
		names[sym] = id
		return id, nil
	}
	for i := 0; i < int(nTags); i++ {
		k, err := label()
		if err != nil {
			return nil, err
		}
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		r.SetTagSym(k, int(int64(v)))
	}
	for i := 0; i < int(nBTags); i++ {
		k, err := label()
		if err != nil {
			return nil, err
		}
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		r.SetBTagSym(k, int(int64(v)))
	}
	for i := 0; i < int(nFields); i++ {
		k, err := label()
		if err != nil {
			return nil, err
		}
		v, err := d.value(record.SymName(k), ext)
		if err != nil {
			return nil, err
		}
		r.SetFieldSym(k, v)
	}
	return r, nil
}

// decoder walks an encoded record with bounds checking.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf)-d.off {
		return nil, fmt.Errorf("dist: truncated record encoding at byte %d", d.off)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) byte() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("dist: truncated varint at byte %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) value(label string, ext ValueCodec) (any, error) {
	code, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch code {
	case tNil:
		return nil, nil
	case tBool:
		b, err := d.byte()
		if err != nil {
			return nil, err
		}
		return b != 0, nil
	case tInt:
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		return int(int64(v)), nil
	case tFloat:
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(v), nil
	case tString:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		b, err := d.take(int(n))
		if err != nil {
			return nil, err
		}
		return string(b), nil
	case tBytes:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		b, err := d.take(int(n))
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	case tExt:
		nameLen, err := d.u16()
		if err != nil {
			return nil, err
		}
		name, err := d.take(int(nameLen))
		if err != nil {
			return nil, err
		}
		dataLen, err := d.u32()
		if err != nil {
			return nil, err
		}
		data, err := d.take(int(dataLen))
		if err != nil {
			return nil, err
		}
		if ext == nil {
			return nil, fmt.Errorf("dist: field %q carries extension encoding %q but the link has no ValueCodec",
				label, string(name))
		}
		v, err := ext.Decode(string(name), data)
		if err != nil {
			return nil, fmt.Errorf("dist: field %q extension decode (%q): %w", label, string(name), err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("dist: field %q has unknown wire type code %d", label, code)
	}
}
