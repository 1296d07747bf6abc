// Edge-case coverage for the interned-label record representation: the
// S-Net semantic invariants (override rule, btag exemption) and the
// representation-level hazards (inline-capacity spill, reuse after Reset,
// equality across construction orders, control records on the wire).
package record_test

import (
	"fmt"
	"testing"

	"snet/internal/dist"
	"snet/internal/record"
)

// TestInheritOverrideRule pins the paper's override rule through the
// merge-join implementation: a label already present in the inheriting
// record is never replaced, regardless of where it falls in symbol order.
func TestInheritOverrideRule(t *testing.T) {
	src := record.New().
		SetField("a", "src-a").SetField("m", "src-m").SetField("z", "src-z").
		SetTag("ta", 1).SetTag("tz", 2)
	dst := record.New().SetField("m", "dst-m").SetTag("ta", 99)
	dst.InheritFrom(src)
	if v, _ := dst.Field("m"); v != "dst-m" {
		t.Fatalf("override rule violated: field m = %v", v)
	}
	if v, _ := dst.Tag("ta"); v != 99 {
		t.Fatalf("override rule violated: tag ta = %d", v)
	}
	for _, f := range []string{"a", "z"} {
		if v, _ := dst.Field(f); v != "src-"+f {
			t.Fatalf("field %s not inherited: %v", f, v)
		}
	}
	if v, _ := dst.Tag("tz"); v != 2 {
		t.Fatal("tag tz not inherited")
	}
}

// TestBTagExemption pins the S-Net 2.0 rule: binding tags never flow, on
// both inheritance entry points, but do transfer through the synchrocell
// Merge.
func TestBTagExemption(t *testing.T) {
	src := record.New().SetBTag("bind", 7).SetTag("t", 1)
	if record.New().InheritFrom(src).HasBTag("bind") {
		t.Fatal("InheritFrom transferred a binding tag")
	}
	if record.New().InheritFromExcept(src, nil, nil).HasBTag("bind") {
		t.Fatal("InheritFromExcept transferred a binding tag")
	}
	if !record.New().Merge(src).HasBTag("bind") {
		t.Fatal("Merge must union binding tags")
	}
}

// TestEqualAcrossBuildOrders checks that records assembled in different
// orders — and therefore through different insert paths of the sorted
// representation — compare Equal and share a shape hash.
func TestEqualAcrossBuildOrders(t *testing.T) {
	a := record.New().
		SetField("scene", "s").SetField("sect", 7).
		SetTag("node", 3).SetTag("tasks", 48).SetBTag("bind", 1)
	b := record.New().
		SetBTag("bind", 1).SetTag("tasks", 48).SetTag("node", 3).
		SetField("sect", 7).SetField("scene", "s")
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("build order broke equality: %s vs %s", a, b)
	}
	if a.ShapeHash() != b.ShapeHash() {
		t.Fatal("identical label sets hash differently")
	}
	// A record rebuilt through delete + reinsert is still the same record.
	c := a.Copy()
	c.DeleteTag("node")
	if a.Equal(c) {
		t.Fatal("deleted label not reflected in equality")
	}
	c.SetTag("node", 3)
	if !a.Equal(c) {
		t.Fatal("reinserted label broke equality")
	}
}

// TestShapeHashValueIndependence: updating a bound value keeps the shape;
// changing the label set changes it (with overwhelming probability).
func TestShapeHashValueIndependence(t *testing.T) {
	r := record.New().SetField("f", 1).SetTag("t", 2)
	h := r.ShapeHash()
	r.SetField("f", "other").SetTag("t", 99)
	if r.ShapeHash() != h {
		t.Fatal("value update changed the shape hash")
	}
	r.SetTag("u", 1)
	if r.ShapeHash() == h {
		t.Fatal("label insert kept the shape hash")
	}
	r.DeleteTag("u")
	if r.ShapeHash() != h {
		t.Fatal("shape hash not restored after delete")
	}
	if record.New().ShapeHash() == record.NewTrigger().ShapeHash() {
		t.Fatal("kind must contribute to the shape hash")
	}
}

// TestInlineSpill drives a record far past its inline entry capacity and
// back, checking lookups, ordering and copy independence along the way.
func TestInlineSpill(t *testing.T) {
	r := record.New()
	const n = 40
	for i := n - 1; i >= 0; i-- { // descending: worst case for sorted insert
		r.SetField(fmt.Sprintf("f%02d", i), i)
		r.SetTag(fmt.Sprintf("t%02d", i), i)
	}
	if r.NumFields() != n || r.NumTags() != n {
		t.Fatalf("counts %d/%d, want %d/%d", r.NumFields(), r.NumTags(), n, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := r.Field(fmt.Sprintf("f%02d", i)); !ok || v != i {
			t.Fatalf("field f%02d = %v,%v", i, v, ok)
		}
		if v, ok := r.Tag(fmt.Sprintf("t%02d", i)); !ok || v != i {
			t.Fatalf("tag t%02d = %v,%v", i, v, ok)
		}
	}
	c := r.Copy()
	c.DeleteField("f13")
	c.SetTag("t07", -1)
	if !r.HasField("f13") {
		t.Fatal("copy shares spilled field storage with original")
	}
	if v, _ := r.Tag("t07"); v != 7 {
		t.Fatal("copy shares spilled tag storage with original")
	}
	// Spilled records still inherit correctly into small ones.
	dst := record.New().SetField("f00", "mine")
	dst.InheritFrom(r)
	if v, _ := dst.Field("f00"); v != "mine" {
		t.Fatal("override rule violated after spill")
	}
	if dst.NumFields() != n || dst.NumTags() != n {
		t.Fatalf("inherit from spilled record lost labels: %d/%d", dst.NumFields(), dst.NumTags())
	}
}

// TestResetReuse checks that a Reset record behaves like a fresh one and
// releases no stale bindings.
func TestResetReuse(t *testing.T) {
	r := record.NewTrigger()
	for i := 0; i < 20; i++ { // force a spill before resetting
		r.SetField(fmt.Sprintf("f%d", i), i)
	}
	r.Reset()
	if !r.IsData() || r.NumFields() != 0 || r.NumTags() != 0 || r.NumBTags() != 0 {
		t.Fatalf("Reset left residue: %s", r)
	}
	r.SetField("fresh", 1)
	if r.NumFields() != 1 || !r.HasField("fresh") || r.HasField("f3") {
		t.Fatalf("reused record wrong: %s", r)
	}
	if !r.Equal(record.New().SetField("fresh", 1)) {
		t.Fatal("reused record not equal to fresh equivalent")
	}
}

// TestTriggerCodecRoundTrips checks that control records survive a
// negotiated link mid-stream (after data records have populated the label
// table); a trigger as a fresh link's first message is
// dist.TestCodecTriggerRoundTrip.
func TestTriggerCodecRoundTrips(t *testing.T) {
	// data, trigger, data — the trailing data record must still resolve
	// its (table-only) label references.
	enc, dec := dist.NewCodec(), dist.NewCodec()
	data := record.New().SetField("chunk", "payload").SetTag("tasks", 48)
	for i, r := range []*record.Record{data, record.NewTrigger(), data.Copy()} {
		buf, err := enc.Marshal(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rt, err := dec.Unmarshal(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rt.IsData() != r.IsData() {
			t.Fatalf("record %d: kind lost", i)
		}
		if r.IsData() && !rt.Equal(r) {
			t.Fatalf("record %d: round trip %s != %s", i, rt, r)
		}
	}
}

// TestCodecV2FailedMarshalKeepsNegotiation: a Marshal that fails (opaque
// field value) must not commit label definitions the peer never receives;
// the next successful Marshal on the link must still round-trip.
func TestCodecV2FailedMarshalKeepsNegotiation(t *testing.T) {
	enc, dec := dist.NewCodec(), dist.NewCodec()
	bad := record.New().SetTag("tasks", 48).SetField("scene", struct{ x int }{1})
	if _, err := enc.Marshal(bad); err == nil {
		t.Fatal("opaque field marshalled")
	}
	good := record.New().SetTag("tasks", 48).SetField("scene", "now-a-string")
	buf, err := enc.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := dec.Unmarshal(buf)
	if err != nil {
		t.Fatalf("link desynced by failed marshal: %v", err)
	}
	if !rt.Equal(good) {
		t.Fatalf("round trip %s != %s", rt, good)
	}
}

// TestCodecV2SizePredictsMarshal pins Size's contract — the size of the
// next Marshal, without advancing negotiation — including the case of one
// name used in two label classes of the same record (defined inline once).
func TestCodecV2SizePredictsMarshal(t *testing.T) {
	r := record.New().SetTag("x", 1).SetField("x", "both-classes").SetField("y", 2)
	for hop := 0; hop < 3; hop++ {
		c := dist.NewCodec()
		for i := 0; i <= hop; i++ {
			want := c.Size(r)
			buf, err := c.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if want != len(buf) {
				t.Fatalf("hop %d/%d: Size = %d, Marshal = %d bytes", i, hop, want, len(buf))
			}
		}
	}
}

// TestCodecV2CrossLinkIsolation: a reference-only buffer is undecodable on
// a link that never saw the definition — the failure mode the per-link
// tables must detect rather than mislabel.
func TestCodecV2CrossLinkIsolation(t *testing.T) {
	enc := dist.NewCodec()
	r := record.New().SetTag("tasks", 48)
	if _, err := enc.Marshal(r); err != nil { // defines <tasks> on this link
		t.Fatal(err)
	}
	refOnly, err := enc.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.NewCodec().Unmarshal(refOnly); err == nil {
		t.Fatal("foreign link decoded a reference-only buffer")
	}
}
