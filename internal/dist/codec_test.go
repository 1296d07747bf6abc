package dist_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"snet/internal/dist"
	"snet/internal/record"
)

type sized struct{ n int }

func (s sized) ByteSize() int { return s.n }

func roundTripRecord() *record.Record {
	r := record.Build().
		F("name", "sphere-7").
		F("weight", 3.25).
		F("count", 42).
		F("wide", int64(1<<40)).
		F("flag", true).
		F("off", false).
		F("blob", []byte{0, 1, 2, 254, 255}).
		F("empty", nil).
		T("node", 3).
		T("tasks", -48).
		Rec()
	r.SetBTag("bind", 7)
	r.SetBTag("neg", -1)
	return r
}

func TestCodecRoundTrip(t *testing.T) {
	r := roundTripRecord()
	buf, err := dist.NewCodec().Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.NewCodec().Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}

	if !got.IsData() {
		t.Fatal("kind lost")
	}
	for _, tag := range []struct {
		label string
		want  int
	}{{"node", 3}, {"tasks", -48}} {
		if v, ok := got.Tag(tag.label); !ok || v != tag.want {
			t.Fatalf("tag <%s> = %d,%v, want %d", tag.label, v, ok, tag.want)
		}
	}
	for _, bt := range []struct {
		label string
		want  int
	}{{"bind", 7}, {"neg", -1}} {
		if v, ok := got.BTag(bt.label); !ok || v != bt.want {
			t.Fatalf("btag <#%s> = %d,%v, want %d", bt.label, v, ok, bt.want)
		}
	}
	checks := map[string]any{
		"name": "sphere-7", "weight": 3.25, "count": 42,
		"wide": int(1 << 40), "flag": true, "off": false, "empty": nil,
	}
	for label, want := range checks {
		v, ok := got.Field(label)
		if !ok || v != want {
			t.Fatalf("field %s = %v,%v, want %v", label, v, ok, want)
		}
	}
	blob, _ := got.Field("blob")
	if !bytes.Equal(blob.([]byte), []byte{0, 1, 2, 254, 255}) {
		t.Fatalf("blob = %v", blob)
	}
	if got.NumFields() != 8 || got.NumTags() != 2 || got.NumBTags() != 2 {
		t.Fatalf("label counts %d/%d/%d", got.NumFields(), got.NumTags(), got.NumBTags())
	}
}

func TestCodecTriggerRoundTrip(t *testing.T) {
	buf, err := dist.NewCodec().Marshal(record.NewTrigger())
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.NewCodec().Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsData() {
		t.Fatal("trigger decoded as data record")
	}
}

func TestSizeMatchesMarshal(t *testing.T) {
	records := []*record.Record{
		record.New(),
		record.NewTrigger(),
		record.Build().F("s", "abc").F("b", []byte("xyzw")).T("n", 1).Rec(),
		record.Build().F("f", 2.5).F("i", 7).F("nil", nil).F("t", true).Rec(),
	}
	for _, r := range records {
		c := dist.NewCodec()
		want := c.Size(r)
		buf, err := c.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if want != len(buf) {
			t.Fatalf("record %s: Size = %d, Marshal = %d bytes", r, want, len(buf))
		}
	}
}

// TestSizeByteSizerConvention checks that opaque field values follow the
// mpi.ByteSizer conventions: declared sizes are honored, everything else
// falls back to the fixed estimate.
func TestSizeByteSizerConvention(t *testing.T) {
	// A nil field value has no payload, so base carries exactly the label
	// and type-code overhead all three records share; only the payload
	// sizing differs.
	base := dist.NewCodec().Size(record.New().SetField("x", nil))
	declared := record.New().SetField("x", sized{n: 1000})
	opaque := record.New().SetField("x", struct{ a, b int }{})
	if got := dist.NewCodec().Size(declared); got != base+1000 {
		t.Fatalf("ByteSizer field: size = %d, want %d", got, base+1000)
	}
	if got := dist.NewCodec().Size(opaque); got != base+64 {
		t.Fatalf("opaque field: size = %d, want %d", got, base+64)
	}
}

func TestMarshalRejectsOpaqueFields(t *testing.T) {
	r := record.New().SetField("scene", struct{ x int }{1})
	if _, err := dist.NewCodec().Marshal(r); err == nil ||
		!strings.Contains(err.Error(), "scene") {
		t.Fatalf("err = %v", err)
	}
}

func TestMarshalRejectsTooManyLabels(t *testing.T) {
	r := record.New()
	for i := 0; i < 1<<16; i++ {
		r.SetTag(fmt.Sprintf("t%d", i), i)
	}
	if _, err := dist.NewCodec().Marshal(r); err == nil ||
		!strings.Contains(err.Error(), "wire limit") {
		t.Fatalf("err = %v", err)
	}
}

// labelLenOverflow is a 19-byte single-record message whose one tag defines
// its label inline with a name length of 2^64-1: cast to int that is -1,
// which an additive bounds check lets through to a slice expression.
var labelLenOverflow = []byte{
	2, 0, // version, data record
	1, 0, 0, 0, 0, 0, // one tag, no btags, no fields
	1,                                                          // label ref: symbol 0, defined inline
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, // name length
}

func goodMessage(t testing.TB) []byte {
	good, err := dist.NewCodec().Marshal(record.Build().F("s", "hello").T("n", 1).Rec())
	if err != nil {
		t.Fatal(err)
	}
	return good
}

func TestUnmarshalErrors(t *testing.T) {
	good := goodMessage(t)
	cases := map[string][]byte{
		"empty":              {},
		"bad version":        {99, 0, 0, 0, 0, 0, 0, 0},
		"retired version 1":  {1, 0, 0, 0, 0, 0, 0, 0},
		"bad kind":           {2, 7, 0, 0, 0, 0, 0, 0},
		"truncated":          good[:len(good)-3],
		"trailing":           append(append([]byte{}, good...), 0),
		"label len overflow": labelLenOverflow,
	}
	for name, buf := range cases {
		if _, err := dist.NewCodec().Unmarshal(buf); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// FuzzCodecUnmarshal feeds arbitrary bytes to a fresh link's decoder: the
// outcome is an error or a record that marshals again and decodes to the
// same label counts, never a panic.
func FuzzCodecUnmarshal(f *testing.F) {
	good := goodMessage(f)
	full, err := dist.NewCodec().Marshal(roundTripRecord())
	if err != nil {
		f.Fatal(err)
	}
	trigger, err := dist.NewCodec().Marshal(record.NewTrigger())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{good, full, trigger, good[:len(good)-3], labelLenOverflow} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := dist.NewCodec().Unmarshal(data)
		if err != nil {
			return
		}
		again, err := dist.NewCodec().Marshal(r)
		if err != nil {
			t.Fatalf("decoded record %s does not marshal: %v", r, err)
		}
		back, err := dist.NewCodec().Unmarshal(again)
		if err != nil {
			t.Fatalf("re-marshalled record %s does not decode: %v", r, err)
		}
		if back.IsData() != r.IsData() || back.NumFields() != r.NumFields() ||
			back.NumTags() != r.NumTags() || back.NumBTags() != r.NumBTags() {
			t.Fatalf("round trip changed %s into %s", r, back)
		}
	})
}

// FuzzCodecUnmarshalBatch is FuzzCodecUnmarshal for batch messages.
func FuzzCodecUnmarshalBatch(f *testing.F) {
	batch, err := dist.NewCodec().MarshalBatch([]*record.Record{
		roundTripRecord(), record.NewTrigger(), record.Build().F("s", "hello").T("n", 1).Rec(),
	})
	if err != nil {
		f.Fatal(err)
	}
	// The overflowing label definition as the only record of a batch.
	overflow := append([]byte{2, 2, 1, 0}, labelLenOverflow[1:]...)
	for _, seed := range [][]byte{batch, batch[:len(batch)-3], overflow} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := dist.NewCodec().UnmarshalBatch(data)
		if err != nil {
			return
		}
		again, err := dist.NewCodec().MarshalBatch(rs)
		if err != nil {
			t.Fatalf("decoded batch of %d does not marshal: %v", len(rs), err)
		}
		back, err := dist.NewCodec().UnmarshalBatch(again)
		if err != nil || len(back) != len(rs) {
			t.Fatalf("re-marshalled batch of %d decodes to %d records: %v", len(rs), len(back), err)
		}
	})
}
