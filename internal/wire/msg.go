// Message payload encodings: the fixed-layout bytes between a frame's type
// byte and its record payload. Everything is little-endian, matching the
// record codec. Each message has an append* builder and a parse* reader;
// record payloads (EXEC inputs, RESULT/RECORD-BATCH batches) are the
// remaining bytes of the frame and are decoded by the connection's
// dist.Codec, never here.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// mr is a bounds-checked message reader over one frame's payload.
type mr struct {
	buf []byte
	off int
}

func (m *mr) take(n int) ([]byte, error) {
	if m.off+n > len(m.buf) {
		return nil, fmt.Errorf("wire: truncated message at byte %d", m.off)
	}
	b := m.buf[m.off : m.off+n]
	m.off += n
	return b, nil
}

func (m *mr) u8() (byte, error) {
	b, err := m.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (m *mr) u16() (int, error) {
	b, err := m.take(2)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint16(b)), nil
}

func (m *mr) u32() (uint32, error) {
	b, err := m.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (m *mr) u64() (uint64, error) {
	b, err := m.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (m *mr) str16() (string, error) {
	n, err := m.u16()
	if err != nil {
		return "", err
	}
	b, err := m.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// rest returns the unread remainder of the payload (the record bytes).
func (m *mr) rest() []byte { return m.buf[m.off:] }

func appendU16(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint16(buf, uint16(v))
}

func appendStr16(buf []byte, s string) []byte {
	buf = appendU16(buf, len(s))
	return append(buf, s...)
}

// HELLO: magic u32, version u16, cpus u16, rejoin node u16 (0 = fresh
// join; >0 = RE-HELLO claiming the node id a previous connection held),
// box count u16, then each box name u16-length-prefixed.
type helloMsg struct {
	version int
	cpus    int
	node    int // 0 = fresh join, >0 = rejoin as this node
	boxes   []string
}

func appendHello(buf []byte, cpus, node int, boxes []string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, helloMagic)
	buf = appendU16(buf, protoVersion)
	buf = appendU16(buf, cpus)
	buf = appendU16(buf, node)
	buf = appendU16(buf, len(boxes))
	for _, b := range boxes {
		buf = appendStr16(buf, b)
	}
	return buf
}

func parseHello(payload []byte) (helloMsg, error) {
	m := &mr{buf: payload}
	magic, err := m.u32()
	if err != nil {
		return helloMsg{}, err
	}
	if magic != helloMagic {
		return helloMsg{}, fmt.Errorf("wire: HELLO magic %#x, want %#x (not an snet worker?)", magic, helloMagic)
	}
	var h helloMsg
	if h.version, err = m.u16(); err != nil {
		return helloMsg{}, err
	}
	if h.cpus, err = m.u16(); err != nil {
		return helloMsg{}, err
	}
	if h.node, err = m.u16(); err != nil {
		return helloMsg{}, err
	}
	n, err := m.u16()
	if err != nil {
		return helloMsg{}, err
	}
	for i := 0; i < n; i++ {
		b, err := m.str16()
		if err != nil {
			return helloMsg{}, err
		}
		h.boxes = append(h.boxes, b)
	}
	return h, nil
}

// WELCOME: version u16, node u16, nodes u16, slots u16, heartbeat interval
// u32 (milliseconds), liveness timeout u32 (milliseconds). The heartbeat
// parameters tell the worker how aggressively the coordinator probes, so
// the worker can bound its own reads with the matching deadline; zero
// disables worker-side read deadlines.
type welcomeMsg struct {
	version   int
	node      int
	nodes     int
	slots     int
	heartbeat time.Duration
	liveness  time.Duration
}

func appendWelcome(buf []byte, node, nodes, slots int, heartbeat, liveness time.Duration) []byte {
	buf = appendU16(buf, protoVersion)
	buf = appendU16(buf, node)
	buf = appendU16(buf, nodes)
	buf = appendU16(buf, slots)
	buf = binary.LittleEndian.AppendUint32(buf, clampMs(heartbeat))
	return binary.LittleEndian.AppendUint32(buf, clampMs(liveness))
}

// clampMs converts a duration to whole milliseconds saturating at u32 —
// the wire form of the heartbeat parameters.
func clampMs(d time.Duration) uint32 {
	ms := d.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	return uint32(ms)
}

func parseWelcome(payload []byte) (welcomeMsg, error) {
	m := &mr{buf: payload}
	var w welcomeMsg
	var err error
	if w.version, err = m.u16(); err != nil {
		return w, err
	}
	if w.node, err = m.u16(); err != nil {
		return w, err
	}
	if w.nodes, err = m.u16(); err != nil {
		return w, err
	}
	if w.slots, err = m.u16(); err != nil {
		return w, err
	}
	hb, err := m.u32()
	if err != nil {
		return w, err
	}
	lv, err := m.u32()
	if err != nil {
		return w, err
	}
	w.heartbeat = time.Duration(hb) * time.Millisecond
	w.liveness = time.Duration(lv) * time.Millisecond
	return w, nil
}

// EXEC / STEAL-GRANT: request id u64, home node u16, box name (u16 +
// bytes), then the codec-encoded input record.
type execMsg struct {
	req  uint64
	home int
	box  string
	rec  []byte
}

func appendExecHeader(buf []byte, req uint64, home int, box string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, req)
	buf = appendU16(buf, home)
	return appendStr16(buf, box)
}

func parseExec(payload []byte) (execMsg, error) {
	m := &mr{buf: payload}
	var e execMsg
	var err error
	if e.req, err = m.u64(); err != nil {
		return e, err
	}
	if e.home, err = m.u16(); err != nil {
		return e, err
	}
	if e.box, err = m.str16(); err != nil {
		return e, err
	}
	e.rec = m.rest()
	return e, nil
}

// RESULT: request id u64, status u8 (0 ok, 1 box error), error message
// (u16 + bytes, empty on ok), then the codec-encoded emission batch.
const (
	statusOK  byte = 0
	statusErr byte = 1
)

type resultMsg struct {
	req    uint64
	status byte
	errmsg string
	batch  []byte
}

func appendResultHeader(buf []byte, req uint64, status byte, errmsg string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, req)
	buf = append(buf, status)
	if len(errmsg) > math.MaxUint16 {
		errmsg = errmsg[:math.MaxUint16]
	}
	return appendStr16(buf, errmsg)
}

func parseResult(payload []byte) (resultMsg, error) {
	m := &mr{buf: payload}
	var r resultMsg
	var err error
	if r.req, err = m.u64(); err != nil {
		return r, err
	}
	if r.status, err = m.u8(); err != nil {
		return r, err
	}
	if r.errmsg, err = m.str16(); err != nil {
		return r, err
	}
	r.batch = m.rest()
	return r, nil
}

// RECORD-BATCH: from node u16, to node u16, then the codec-encoded batch.
type batchMsg struct {
	from, to int
	batch    []byte
}

func appendBatchHeader(buf []byte, from, to int) []byte {
	buf = appendU16(buf, from)
	return appendU16(buf, to)
}

func parseBatch(payload []byte) (batchMsg, error) {
	m := &mr{buf: payload}
	var b batchMsg
	var err error
	if b.from, err = m.u16(); err != nil {
		return b, err
	}
	if b.to, err = m.u16(); err != nil {
		return b, err
	}
	b.batch = m.rest()
	return b, nil
}

// GOODBYE: reason (u16 + bytes).
func appendGoodbye(buf []byte, reason string) []byte {
	if len(reason) > math.MaxUint16 {
		reason = reason[:math.MaxUint16]
	}
	return appendStr16(buf, reason)
}

func parseGoodbye(payload []byte) (string, error) {
	m := &mr{buf: payload}
	return m.str16()
}
