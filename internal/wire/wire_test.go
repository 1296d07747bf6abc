package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	buf := appendFrame(nil, fGoodbye, appendGoodbye(nil, "done"))
	typ, payload, err := readFrame(bytes.NewReader(buf), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != fGoodbye {
		t.Fatalf("type = %d", typ)
	}
	if v, err := parseGoodbye(payload); err != nil || v != "done" {
		t.Fatalf("goodbye = %q, %v", v, err)
	}
	if frameLen(len(payload)) != int64(len(buf)) {
		t.Fatalf("frameLen = %d, wire = %d", frameLen(len(payload)), len(buf))
	}
}

func TestReadFrameShortHeader(t *testing.T) {
	// A peer dying inside the 4-byte length prefix: ReadFull surfaces the
	// truncation, not a hang or a garbage frame.
	_, _, err := readFrame(bytes.NewReader([]byte{7, 0}), DefaultMaxFrame)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Dying exactly on the frame boundary is a clean EOF — the only
	// place a connection may end silently.
	_, _, err = readFrame(bytes.NewReader(nil), DefaultMaxFrame)
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestReadFrameShortPayload(t *testing.T) {
	full := appendFrame(nil, fGoodbye, appendGoodbye(nil, "bye"))
	for cut := 5; cut < len(full); cut++ {
		_, _, err := readFrame(bytes.NewReader(full[:cut]), DefaultMaxFrame)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	buf := appendFrame(nil, fBatch, make([]byte, 100))
	_, _, err := readFrame(bytes.NewReader(buf), 32)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// The limit is on the announced length, so a hostile prefix cannot
	// force an allocation: nothing past the header is read.
	r := bytes.NewReader(append([]byte{0xff, 0xff, 0xff, 0xff}, 1))
	if _, _, err := readFrame(r, DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameZeroLength(t *testing.T) {
	_, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0}), DefaultMaxFrame)
	if err == nil || !strings.Contains(err.Error(), "zero-length") {
		t.Fatalf("err = %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h, err := parseHello(appendHello(nil, 4, 0, []string{"solver", "fuse"}))
	if err != nil {
		t.Fatal(err)
	}
	if h.version != protoVersion || h.cpus != 4 || h.node != 0 || len(h.boxes) != 2 || h.boxes[1] != "fuse" {
		t.Fatalf("hello = %+v", h)
	}
	// A RE-HELLO carries the node id the worker held before.
	h, err = parseHello(appendHello(nil, 4, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if h.node != 2 {
		t.Fatalf("rejoin node = %d", h.node)
	}
}

func TestHelloRejectsBadMagic(t *testing.T) {
	payload := appendHello(nil, 1, 0, nil)
	payload[0] ^= 0xff
	if _, err := parseHello(payload); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w, err := parseWelcome(appendWelcome(nil, 2, 3, 8, time.Second, 4*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if w.version != protoVersion || w.node != 2 || w.nodes != 3 || w.slots != 8 {
		t.Fatalf("welcome = %+v", w)
	}
	if w.heartbeat != time.Second || w.liveness != 4*time.Second {
		t.Fatalf("heartbeat params = %v / %v", w.heartbeat, w.liveness)
	}
	// Sub-millisecond and negative durations clamp rather than wrap.
	w, err = parseWelcome(appendWelcome(nil, 1, 2, 1, 500*time.Microsecond, -time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if w.heartbeat != 0 || w.liveness != 0 {
		t.Fatalf("clamped params = %v / %v", w.heartbeat, w.liveness)
	}
}

func TestExecResultHeaders(t *testing.T) {
	rec := []byte{9, 9, 9}
	e, err := parseExec(append(appendExecHeader(nil, 42, 1, "solver"), rec...))
	if err != nil {
		t.Fatal(err)
	}
	if e.req != 42 || e.home != 1 || e.box != "solver" || !bytes.Equal(e.rec, rec) {
		t.Fatalf("exec = %+v", e)
	}
	r, err := parseResult(append(appendResultHeader(nil, 42, statusErr, "boom"), rec...))
	if err != nil {
		t.Fatal(err)
	}
	if r.req != 42 || r.status != statusErr || r.errmsg != "boom" || !bytes.Equal(r.batch, rec) {
		t.Fatalf("result = %+v", r)
	}
}

func TestTruncatedMessages(t *testing.T) {
	// Every parser must reject every truncation of a valid payload
	// rather than read out of bounds or mis-split fields.
	payloads := map[string][]byte{
		"hello":   appendHello(nil, 2, 1, []string{"a", "bc"}),
		"welcome": appendWelcome(nil, 1, 2, 4, time.Second, 4*time.Second),
		"goodbye": appendGoodbye(nil, "reason"),
	}
	for name, full := range payloads {
		for cut := 0; cut < len(full); cut++ {
			var err error
			switch name {
			case "hello":
				_, err = parseHello(full[:cut])
			case "welcome":
				_, err = parseWelcome(full[:cut])
			case "goodbye":
				_, err = parseGoodbye(full[:cut])
			}
			if err == nil {
				t.Errorf("%s truncated at %d parsed successfully", name, cut)
			}
		}
	}
}
