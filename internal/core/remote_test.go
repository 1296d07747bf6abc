package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"snet/internal/record"
	"snet/internal/rtype"
)

func TestCallBoxDetached(t *testing.T) {
	fn := func(c *BoxCall) error {
		x := c.Field("x").(int)
		c.Emit(record.New().SetField("x", x+1))
		c.Emit(record.New().SetField("x", x+2))
		return nil
	}
	in := record.Build().F("x", 10).T("extra", 7).Rec()
	outs, err := CallBox(fn, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d emissions, want 2", len(outs))
	}
	if v, _ := outs[0].Field("x"); v != 11 {
		t.Fatalf("first emission x = %v", v)
	}
	// Detached calls must NOT apply flow inheritance: the dispatching
	// process does that when the emissions return.
	if outs[0].HasTag("extra") {
		t.Fatalf("detached emission inherited tag <extra>: %s", outs[0])
	}
}

func TestCallBoxErrorKeepsEmissions(t *testing.T) {
	fn := func(c *BoxCall) error {
		c.Emit(record.New().SetField("y", 1))
		return errors.New("boom")
	}
	outs, err := CallBox(fn, record.New())
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if len(outs) != 1 {
		t.Fatalf("emissions before the failure were dropped: %v", outs)
	}
}

func TestCallBoxPanic(t *testing.T) {
	outs, err := CallBox(func(c *BoxCall) error { panic("ouch") }, record.New())
	if err == nil || !strings.Contains(err.Error(), "ouch") {
		t.Fatalf("err = %v, want the panic converted", err)
	}
	if len(outs) != 0 {
		t.Fatalf("outs = %v", outs)
	}
}

// fakeRemote implements Platform.ExecBox by running registered boxes through
// CallBox in-process — the worker side of the wire protocol without the
// wire. Boxes not in the table fall back to local().
type fakeRemote struct {
	LocalPlatform
	boxes   map[string]BoxFunc
	remotes atomic.Int64
	locals  atomic.Int64
}

func (f *fakeRemote) Nodes() int { return 2 }

func (f *fakeRemote) ExecBox(node int, cancel <-chan struct{}, box string, input *record.Record,
	stealable bool, local func()) ([]*record.Record, bool, bool, error) {
	fn, found := f.boxes[box]
	if !found {
		f.locals.Add(1)
		local()
		return nil, false, true, nil
	}
	f.remotes.Add(1)
	outs, err := CallBox(fn, input)
	return outs, true, true, err
}

func TestRemotePlatformExecBoxPath(t *testing.T) {
	// The box registered with the fake "remote" doubles x; the network's
	// own body would add 1. Seeing doubled outputs with inherited labels
	// proves the remote path ran the remote table's body AND applied flow
	// inheritance on the dispatching side.
	remoteFn := func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x").(int)*2))
		return nil
	}
	plat := &fakeRemote{boxes: map[string]BoxFunc{"inc": remoteFn}}
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	box := NewBox("inc", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", c.Field("x").(int)+1))
		return nil
	})
	in := record.Build().F("x", 21).T("ride", 5).Rec()
	outs, err := NewNetwork(box, Options{Platform: plat}).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outputs", len(outs))
	}
	if v, _ := outs[0].Field("x"); v != 42 {
		t.Fatalf("x = %v, want the remote body's 42", v)
	}
	if v, ok := outs[0].Tag("ride"); !ok || v != 5 {
		t.Fatalf("flow inheritance lost tag <ride>: %s", outs[0])
	}
	if plat.remotes.Load() != 1 {
		t.Fatalf("remote executions = %d, want 1", plat.remotes.Load())
	}
}

func TestRemotePlatformFallsBackLocal(t *testing.T) {
	plat := &fakeRemote{boxes: map[string]BoxFunc{}}
	outs := runEntity(t, incBox("inc", 1), record.New().SetField("x", 1))
	_ = outs
	got, err := NewNetwork(incBox("inc", 1), Options{Platform: plat}).
		Run(record.New().SetField("x", 41))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || xVal(t, got[0]) != 42 {
		t.Fatalf("outs = %v", got)
	}
	if plat.locals.Load() != 1 || plat.remotes.Load() != 0 {
		t.Fatalf("locals=%d remotes=%d, want the unregistered box to run locally",
			plat.locals.Load(), plat.remotes.Load())
	}
}

func TestRemotePlatformReportsRemoteError(t *testing.T) {
	plat := &fakeRemote{boxes: map[string]BoxFunc{
		"inc": func(c *BoxCall) error {
			c.Emit(record.New().SetField("x", 1))
			return fmt.Errorf("remote failure")
		},
	}}
	outs, err := NewNetwork(incBox("inc", 1), Options{Platform: plat}).
		Run(record.New().SetField("x", 0))
	if err == nil || !strings.Contains(err.Error(), "remote failure") {
		t.Fatalf("err = %v, want the remote box error reported", err)
	}
	// Matching local semantics, the emissions before the failure flow on.
	if len(outs) != 1 {
		t.Fatalf("outs = %v, want the pre-failure emission delivered", outs)
	}
}
