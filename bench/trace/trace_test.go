package trace

import "testing"

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "epoch", StartNS: 0, EndNS: 100e6},
		{ID: 2, Name: "start", Parent: 1, StartNS: 0, EndNS: 10e6},
		{ID: 3, Name: "transit", Parent: 1, StartNS: 20e6, EndNS: 60e6},
		{ID: 4, Name: "transit", Parent: 1, StartNS: 40e6, EndNS: 80e6}, // overlaps span 3
		{ID: 5, Name: "close", Parent: 1, StartNS: 90e6, EndNS: 120e6},  // runs past its parent
	}
	got := map[string]Layer{}
	for _, l := range Layers(spans) {
		got[l.Name] = l
	}
	// Children cover [0,10] + [20,80] + [90,100] = 80 of the epoch's 100 ms.
	if e := got["epoch"]; e.TotalMS != 100 || e.SelfMS != 20 {
		t.Errorf("epoch: total %v self %v, want 100 and 20", e.TotalMS, e.SelfMS)
	}
	if tr := got["transit"]; tr.Count != 2 || tr.TotalMS != 80 || tr.SelfMS != 80 || tr.MedianMS != 40 {
		t.Errorf("transit: %+v", tr)
	}
	if MedianMS(Layers(spans), "absent") != 0 {
		t.Error("a name with no spans should read 0")
	}
}

func TestNilAndDisabledRecordNothing(t *testing.T) {
	var r *Recorder
	r.Begin("x", 1, 0).End()
	r.SetEnabled(true)
	if r.Enabled() || len(r.Spans()) != 0 {
		t.Error("nil recorder recorded")
	}
	r = New()
	r.SetEnabled(false)
	r.Begin("x", 1, 0).End()
	r.SetEnabled(true)
	r.Begin("y", 1, 0).End()
	if s := r.Spans(); len(s) != 1 || s[0].Name != "y" {
		t.Errorf("spans = %+v, want only y", s)
	}
}
