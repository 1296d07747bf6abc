// Tests for the hooks internal/wire layers on top of the in-process model:
// ExecOn (slot scheduling that reports the granted node), Codec.Reset
// (re-negotiation after connection loss), MarshalBatch/UnmarshalBatch (the
// real bytes behind AccountBatch's sizing), and the ValueCodec extension
// for non-scalar field values.
package dist

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"snet/internal/record"
)

func TestExecOnReportsHomeNode(t *testing.T) {
	c := NewCluster(3, 1)
	var granted int
	ok := c.ExecOn(2, nil, nil, false, func(got int) { granted = got })
	if !ok || granted != 2 {
		t.Fatalf("ExecOn = %v on node %d, want grant on home node 2", ok, granted)
	}
	s := c.Stats()
	if s.Execs[2] != 1 || s.Steals != 0 {
		t.Fatalf("stats = %+v, want one exec on node 2 and no steals", s)
	}
}

func TestExecOnStealsLikeExecStealable(t *testing.T) {
	c := NewCluster(2, 1)
	// Saturate node 0, then dispatch stealable work homed there: the
	// dispatch-time steal must claim node 1's idle slot, report it to fn,
	// and account the migrated input exactly like a stealable ExecBox.
	block := make(chan struct{})
	started := make(chan struct{})
	go c.Exec(0, func() { close(started); <-block })
	<-started

	in := record.New()
	in.SetField("payload", "0123456789")
	var granted int
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.ExecOn(0, nil, in, true, func(got int) { granted = got })
	}()
	<-done
	close(block)

	if granted != 1 {
		t.Fatalf("stealable ExecOn granted node %d, want thief node 1", granted)
	}
	s := c.Stats()
	if s.Steals != 1 || s.Migrated != 1 {
		t.Fatalf("stats = %+v, want 1 steal and 1 migrated input", s)
	}
	if s.Bytes == 0 {
		t.Fatalf("migrated input accounted zero bytes")
	}
}

func TestExecOnCancelBeforeGrant(t *testing.T) {
	c := NewCluster(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	go c.Exec(0, func() { close(started); <-block })
	<-started

	cancel := make(chan struct{})
	close(cancel)
	ran := false
	if ok := c.ExecOn(0, cancel, nil, false, func(int) { ran = true }); ok || ran {
		t.Fatalf("cancelled ExecOn: ok=%v ran=%v, want neither", ok, ran)
	}
	close(block)
}

func TestCodecResetRestartsNegotiation(t *testing.T) {
	enc, dec := NewCodec(), NewCodec()
	r := record.New()
	r.SetField("x", 1)
	r.SetTag("t", 2)

	first, err := enc.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Unmarshal(first); err != nil {
		t.Fatal(err)
	}
	second, err := enc.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) >= len(first) {
		t.Fatalf("negotiated re-send (%d bytes) not smaller than first send (%d bytes)", len(second), len(first))
	}
	if _, err := dec.Unmarshal(second); err != nil {
		t.Fatal(err)
	}

	// Simulate connection loss: a fresh decoder on the new connection
	// cannot resolve the encoder's bare symbol references...
	fresh := NewCodec()
	leak, err := enc.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Unmarshal(leak); err == nil {
		t.Fatalf("fresh decoder accepted a reference-only encoding from a negotiated link")
	}

	// ...until both sides Reset: the encoder re-defines every label inline
	// and the stream decodes from scratch.
	enc.Reset()
	fresh.Reset()
	again, err := enc.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) {
		t.Fatalf("post-Reset encoding is %d bytes, want the fresh-link size %d", len(again), len(first))
	}
	got, err := fresh.Unmarshal(again)
	if err != nil {
		t.Fatalf("post-Reset decode: %v", err)
	}
	if v, ok := got.Tag("t"); !ok || v != 2 {
		t.Fatalf("post-Reset record lost tag t: %v %v", v, ok)
	}
}

func TestMarshalBatchMatchesAccountBatch(t *testing.T) {
	// The real bytes and the accounting must agree: two codecs in the same
	// negotiation state produce len(MarshalBatch) == AccountBatch for
	// scalar records, including the second batch where the label table is
	// already negotiated.
	mkBatch := func(n, base int) []*record.Record {
		var rs []*record.Record
		for i := 0; i < n; i++ {
			r := record.New()
			r.SetField("value", float64(base+i))
			r.SetField("name", fmt.Sprintf("rec-%d", base+i))
			r.SetTag("seq", base+i)
			rs = append(rs, r)
		}
		rs = append(rs, record.NewTrigger())
		return rs
	}
	acct, wire, dec := NewCodec(), NewCodec(), NewCodec()
	for round, base := range []int{0, 100} {
		rs := mkBatch(3, base)
		want := acct.AccountBatch(rs)
		data, err := wire.MarshalBatch(rs)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != want {
			t.Fatalf("round %d: MarshalBatch produced %d bytes, AccountBatch sized %d", round, len(data), want)
		}
		outs, err := dec.UnmarshalBatch(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(rs) {
			t.Fatalf("round %d: decoded %d records, want %d", round, len(outs), len(rs))
		}
		for i, o := range outs {
			if o.IsData() != rs[i].IsData() {
				t.Fatalf("round %d record %d: kind mismatch", round, i)
			}
			if !o.IsData() {
				continue
			}
			if v, ok := o.Tag("seq"); !ok || v != base+i {
				t.Fatalf("round %d record %d: seq = %v %v", round, i, v, ok)
			}
			if v, _ := o.Field("name"); v != fmt.Sprintf("rec-%d", base+i) {
				t.Fatalf("round %d record %d: name = %v", round, i, v)
			}
		}
	}
}

func TestUnmarshalRejectsBatchKind(t *testing.T) {
	enc := NewCodec()
	data, err := enc.MarshalBatch([]*record.Record{record.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCodec().Unmarshal(data); err == nil ||
		!strings.Contains(err.Error(), "UnmarshalBatch") {
		t.Fatalf("Unmarshal of a batch message: err = %v, want a hint at UnmarshalBatch", err)
	}
}

// testExt encodes testPayload values as "tp:" + 8-byte big-endian id.
type testPayload struct{ id uint64 }

type testExt struct{ mu sync.Mutex }

func (x *testExt) Handles(v any) bool { _, ok := v.(testPayload); return ok }
func (x *testExt) Encode(v any) (string, []byte, error) {
	p := v.(testPayload)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], p.id)
	return "tp", b[:], nil
}
func (x *testExt) Decode(name string, data []byte) (any, error) {
	if name != "tp" || len(data) != 8 {
		return nil, fmt.Errorf("bad tp encoding %q/%d", name, len(data))
	}
	return testPayload{id: binary.BigEndian.Uint64(data)}, nil
}

func TestValueCodecExtensionRoundTrip(t *testing.T) {
	enc, dec := NewCodec(), NewCodec()
	r := record.New()
	r.SetField("p", testPayload{id: 42})
	r.SetField("s", "scalar")

	if enc.Marshalable(r) {
		t.Fatalf("record with unregistered payload reported marshalable")
	}
	if _, err := enc.Marshal(r); err == nil {
		t.Fatalf("Marshal accepted an unregistered payload type")
	}

	ext := &testExt{}
	enc.SetValueCodec(ext)
	if !enc.Marshalable(r) {
		t.Fatalf("record with registered payload reported unmarshalable")
	}
	data, err := enc.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}

	// A peer without the extension must reject the buffer, not mis-decode.
	if _, err := dec.Unmarshal(data); err == nil {
		t.Fatalf("decoder without ValueCodec accepted an extension value")
	}

	dec2 := NewCodec()
	dec2.SetValueCodec(ext)
	got, err := dec2.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Field("p"); v != (testPayload{id: 42}) {
		t.Fatalf("extension field decoded as %#v", v)
	}
	if v, _ := got.Field("s"); v != "scalar" {
		t.Fatalf("scalar field decoded as %#v", v)
	}
}

func TestValueCodecExtensionInBatch(t *testing.T) {
	ext := &testExt{}
	enc, dec := NewCodec(), NewCodec()
	enc.SetValueCodec(ext)
	dec.SetValueCodec(ext)
	var rs []*record.Record
	for i := 0; i < 4; i++ {
		r := record.New()
		r.SetField("p", testPayload{id: uint64(i)})
		rs = append(rs, r)
	}
	data, err := enc.MarshalBatch(rs)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := dec.UnmarshalBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if v, _ := o.Field("p"); v != (testPayload{id: uint64(i)}) {
			t.Fatalf("record %d decoded payload %#v", i, v)
		}
	}
}
