package wire

import (
	"bytes"
	"slices"
	"testing"
)

// fuzzMaxFrame is the frame bound FuzzFrame reads with: small, so announced
// lengths beyond it are common in the generated inputs.
const fuzzMaxFrame = 4 << 10

// FuzzFrame reads arbitrary bytes as a stream of frames and hands each frame
// to the parser for its type. Every frame must end in an error, or in a
// message that re-encodes through its append* builder into a payload that
// parses back to the same fields — never a panic, and never a frame buffer
// beyond the bound. The seed corpus (testdata/fuzz/FuzzFrame) holds every
// frame type, a truncation at each field, an oversized length prefix and a
// str16 whose length runs past the payload.
func FuzzFrame(f *testing.F) {
	f.Add(appendFrame(nil, fGoodbye, appendGoodbye(nil, "bye")))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := readFrame(r, fuzzMaxFrame)
			if err != nil {
				return
			}
			if 1+cap(payload) > fuzzMaxFrame {
				t.Fatalf("frame buffer of %d bytes read under a %d-byte bound", 1+cap(payload), fuzzMaxFrame)
			}
			checkFrame(t, typ, payload)
		}
	})
}

// checkFrame parses one frame's payload by its type and, when it parses,
// re-encodes the message and checks that it parses back to the same fields.
// HELLO and WELCOME re-encode with this build's protocol version: the
// builders take no version.
func checkFrame(t *testing.T, typ byte, payload []byte) {
	switch typ {
	case fHello:
		h, err := parseHello(payload)
		if err != nil {
			return
		}
		back, err := parseHello(appendHello(nil, h.cpus, h.node, h.boxes))
		if err != nil || back.version != protoVersion || back.cpus != h.cpus ||
			back.node != h.node || !slices.Equal(back.boxes, h.boxes) {
			t.Fatalf("HELLO %+v re-parsed as %+v, %v", h, back, err)
		}
	case fWelcome:
		w, err := parseWelcome(payload)
		if err != nil {
			return
		}
		back, err := parseWelcome(appendWelcome(nil, w.node, w.nodes, w.slots, w.heartbeat, w.liveness))
		w.version = protoVersion
		if err != nil || back != w {
			t.Fatalf("WELCOME %+v re-parsed as %+v, %v", w, back, err)
		}
	case fExec, fStealGrant:
		e, err := parseExec(payload)
		if err != nil {
			return
		}
		back, err := parseExec(append(appendExecHeader(nil, e.req, e.home, e.box), e.rec...))
		if err != nil || back.req != e.req || back.home != e.home || back.box != e.box ||
			!bytes.Equal(back.rec, e.rec) {
			t.Fatalf("EXEC %+v re-parsed as %+v, %v", e, back, err)
		}
	case fResult:
		res, err := parseResult(payload)
		if err != nil {
			return
		}
		back, err := parseResult(append(appendResultHeader(nil, res.req, res.status, res.errmsg), res.batch...))
		if err != nil || back.req != res.req || back.status != res.status ||
			back.errmsg != res.errmsg || !bytes.Equal(back.batch, res.batch) {
			t.Fatalf("RESULT %+v re-parsed as %+v, %v", res, back, err)
		}
	case fBatch:
		b, err := parseBatch(payload)
		if err != nil {
			return
		}
		back, err := parseBatch(append(appendBatchHeader(nil, b.from, b.to), b.batch...))
		if err != nil || back.from != b.from || back.to != b.to || !bytes.Equal(back.batch, b.batch) {
			t.Fatalf("RECORD-BATCH %+v re-parsed as %+v, %v", b, back, err)
		}
	case fGoodbye:
		reason, err := parseGoodbye(payload)
		if err != nil {
			return
		}
		if back, err := parseGoodbye(appendGoodbye(nil, reason)); err != nil || back != reason {
			t.Fatalf("GOODBYE %q re-parsed as %q, %v", reason, back, err)
		}
	}
}
