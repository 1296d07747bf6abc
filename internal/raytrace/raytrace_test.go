package raytrace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"snet/internal/geom"
)

func TestSphereIntersect(t *testing.T) {
	s := &Sphere{Center: geom.V(0, 0, 5), Radius: 1, Mat: Matte(geom.V(1, 0, 0))}
	h, ok := s.Intersect(geom.NewRay(geom.V(0, 0, 0), geom.V(0, 0, 1)), 0, 1e18)
	if !ok {
		t.Fatal("head-on ray must hit")
	}
	if !almost(h.T, 4) {
		t.Fatalf("T = %g, want 4", h.T)
	}
	if !vecAlmost(h.Normal, geom.V(0, 0, -1)) {
		t.Fatalf("normal = %v", h.Normal)
	}
	if h.Inside {
		t.Fatal("outside hit flagged inside")
	}
	if _, ok := s.Intersect(geom.NewRay(geom.V(0, 3, 0), geom.V(0, 0, 1)), 0, 1e18); ok {
		t.Fatal("offset ray must miss")
	}
}

func TestSphereInsideHit(t *testing.T) {
	s := &Sphere{Center: geom.V(0, 0, 0), Radius: 2, Mat: Glass(geom.V(1, 1, 1))}
	h, ok := s.Intersect(geom.NewRay(geom.V(0, 0, 0), geom.V(0, 0, 1)), 0, 1e18)
	if !ok || !h.Inside {
		t.Fatalf("inside ray: ok=%v inside=%v", ok, h.Inside)
	}
	// normal must face the origin side
	if h.Normal.Dot(geom.V(0, 0, 1)) >= 0 {
		t.Fatalf("inside normal = %v", h.Normal)
	}
}

func TestSphereTMaxRespected(t *testing.T) {
	s := &Sphere{Center: geom.V(0, 0, 5), Radius: 1}
	if _, ok := s.Intersect(geom.NewRay(geom.V(0, 0, 0), geom.V(0, 0, 1)), 0, 3); ok {
		t.Fatal("hit beyond tMax must be rejected")
	}
}

func TestTriangleIntersect(t *testing.T) {
	tri := &Triangle{A: geom.V(-1, -1, 3), B: geom.V(1, -1, 3), C: geom.V(0, 1, 3)}
	if _, ok := tri.Intersect(geom.NewRay(geom.V(0, 0, 0), geom.V(0, 0, 1)), 0, 1e18); !ok {
		t.Fatal("center ray must hit triangle")
	}
	if _, ok := tri.Intersect(geom.NewRay(geom.V(2, 2, 0), geom.V(0, 0, 1)), 0, 1e18); ok {
		t.Fatal("outside ray must miss triangle")
	}
	// Parallel ray misses.
	if _, ok := tri.Intersect(geom.NewRay(geom.V(0, 0, 0), geom.V(1, 0, 0)), 0, 1e18); ok {
		t.Fatal("parallel ray must miss")
	}
	b := tri.Bounds()
	if !b.Contains(geom.V(0, 0, 3)) {
		t.Fatal("triangle bounds wrong")
	}
}

func TestPlaneIntersectAndChecker(t *testing.T) {
	p := &Plane{
		Point: geom.V(0, 0, 0), Normal: geom.V(0, 1, 0),
		Mat: Matte(geom.V(1, 1, 1)), Checker: true, CheckerColor: geom.V(0, 0, 0),
	}
	h1, ok := p.Intersect(geom.NewRay(geom.V(0.5, 1, 0.5), geom.V(0, -1, 0)), 0, 1e18)
	if !ok {
		t.Fatal("downward ray must hit plane")
	}
	h2, ok := p.Intersect(geom.NewRay(geom.V(1.5, 1, 0.5), geom.V(0, -1, 0)), 0, 1e18)
	if !ok {
		t.Fatal("second ray must hit plane")
	}
	if h1.Mat.Color == h2.Mat.Color {
		t.Fatal("checker squares must alternate")
	}
	if _, ok := p.Intersect(geom.NewRay(geom.V(0, 1, 0), geom.V(1, 0, 0)), 0, 1e18); ok {
		t.Fatal("parallel ray must miss plane")
	}
}

func TestBVHInsertAndValidate(t *testing.T) {
	b := &BVH{}
	if ok, why := b.Validate(); !ok {
		t.Fatal(why)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b.Insert(randomSphere(rng, geom.V(-10, -10, -10), geom.V(10, 10, 10), 0.1, 0.5))
		if ok, why := b.Validate(); !ok {
			t.Fatalf("after %d inserts: %s", i+1, why)
		}
	}
	if b.Len() != 200 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestBVHDepthReasonable(t *testing.T) {
	// Goldsmith–Salmon insertion on uniform input should produce a tree
	// far shallower than a degenerate list.
	b := &BVH{}
	rng := rand.New(rand.NewSource(7))
	const n = 512
	for i := 0; i < n; i++ {
		b.Insert(randomSphere(rng, geom.V(-10, -10, -10), geom.V(10, 10, 10), 0.1, 0.3))
	}
	depth := b.Depth()
	if depth > 6*int(math.Log2(n)) {
		t.Fatalf("depth %d too large for %d uniform objects", depth, n)
	}
}

func TestBVHIntersectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := &BVH{}
	var objs []Object
	for i := 0; i < 100; i++ {
		s := randomSphere(rng, geom.V(-5, -5, 0), geom.V(5, 5, 10), 0.2, 0.6)
		objs = append(objs, s)
		b.Insert(s)
	}
	for i := 0; i < 200; i++ {
		r := geom.NewRay(
			geom.V(rng.Float64()*10-5, rng.Float64()*10-5, -5),
			geom.V(rng.Float64()-0.5, rng.Float64()-0.5, 1),
		)
		bh, bok := b.Intersect(r, 1e-6, 1e18, nil)
		// brute force
		var fh Hit
		fok := false
		limit := 1e18
		for _, o := range objs {
			if h, ok := o.Intersect(r, 1e-6, limit); ok {
				fh = h
				limit = h.T
				fok = true
			}
		}
		if bok != fok {
			t.Fatalf("ray %d: bvh=%v brute=%v", i, bok, fok)
		}
		if bok && !almost(bh.T, fh.T) {
			t.Fatalf("ray %d: bvh T=%g brute T=%g", i, bh.T, fh.T)
		}
	}
}

func TestBVHEmptyIntersect(t *testing.T) {
	b := &BVH{}
	if _, ok := b.Intersect(geom.NewRay(geom.V(0, 0, 0), geom.V(0, 0, 1)), 0, 1e18, nil); ok {
		t.Fatal("empty BVH must not hit")
	}
	if _, ok := b.Occluded(geom.NewRay(geom.V(0, 0, 0), geom.V(0, 0, 1)), 0, 1e18, nil); ok {
		t.Fatal("empty BVH must not occlude")
	}
}

func TestBVHOccludedSkipsTransparent(t *testing.T) {
	b := &BVH{}
	b.Insert(&Sphere{Center: geom.V(0, 0, 5), Radius: 1, Mat: Glass(geom.V(1, 1, 1))})
	if _, ok := b.Occluded(geom.NewRay(geom.V(0, 0, 0), geom.V(0, 0, 1)), 1e-6, 100, nil); ok {
		t.Fatal("transparent object must not occlude")
	}
	b.Insert(&Sphere{Center: geom.V(0, 0, 3), Radius: 0.5, Mat: Matte(geom.V(1, 0, 0))})
	if _, ok := b.Occluded(geom.NewRay(geom.V(0, 0, 0), geom.V(0, 0, 1)), 1e-6, 100, nil); !ok {
		t.Fatal("opaque object must occlude")
	}
}

func TestPropBVHInvariantHolds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &BVH{}
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			b.Insert(randomSphere(rng, geom.V(-8, -8, -8), geom.V(8, 8, 8), 0.05, 0.8))
		}
		ok, _ := b.Validate()
		return ok && b.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropBVHHitAgreesWithBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &BVH{}
		var objs []Object
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			s := randomSphere(rng, geom.V(-5, -5, 0), geom.V(5, 5, 8), 0.2, 0.7)
			objs = append(objs, s)
			b.Insert(s)
		}
		r := geom.NewRay(geom.V(0, 0, -6), geom.V(rng.Float64()-0.5, rng.Float64()-0.5, 1))
		_, bok := b.Intersect(r, 1e-6, 1e18, nil)
		fok := false
		for _, o := range objs {
			if _, ok := o.Intersect(r, 1e-6, 1e18); ok {
				fok = true
				break
			}
		}
		return bok == fok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceBackground(t *testing.T) {
	s := NewScene()
	tr := NewTracer(s)
	c := tr.Pixel(0, 0, 8, 8)
	if !vecAlmost(c, s.Background) {
		t.Fatalf("empty scene pixel = %v, want background", c)
	}
}

func TestTraceDepthLimit(t *testing.T) {
	// Two parallel mirrors: without the depth bound this recurses
	// forever; the trace must terminate and count bounded secondary rays.
	s := NewScene()
	s.MaxRayDepth = 4
	mirror := Material{Color: geom.V(1, 1, 1), Reflectivity: 1}
	s.Add(&Sphere{Center: geom.V(0, 0, 3), Radius: 1, Mat: mirror})
	s.Add(&Sphere{Center: geom.V(0, 0, -3), Radius: 1, Mat: mirror})
	s.Camera.Pos = geom.V(0, 0, 0)
	s.Camera.LookAt = geom.V(0, 0, 1)
	tr := NewTracer(s)
	tr.Pixel(4, 4, 8, 8)
	if tr.Stats.SecondaryRays == 0 {
		t.Fatal("expected secondary rays")
	}
	if tr.Stats.SecondaryRays > 8 {
		t.Fatalf("depth limit not enforced: %d secondary rays", tr.Stats.SecondaryRays)
	}
}

func TestShadowRays(t *testing.T) {
	// A large opaque sphere between the light and the ground darkens the
	// point under it.
	s := NewScene()
	s.Lights = nil
	s.AddLight(Light{Pos: geom.V(0, 10, 0), Intensity: geom.V(1, 1, 1)})
	s.AddPlane(&Plane{Point: geom.V(0, 0, 0), Normal: geom.V(0, 1, 0), Mat: Matte(geom.V(1, 1, 1))})
	tr := NewTracer(s)
	lit := tr.Trace(geom.NewRay(geom.V(0, 1, -3), geom.V(0, -0.5, 1.5)), 0)
	s.Add(&Sphere{Center: geom.V(0, 5, 0), Radius: 2, Mat: Matte(geom.V(1, 0, 0))})
	tr2 := NewTracer(s)
	shadowed := tr2.Trace(geom.NewRay(geom.V(0, 1, -3), geom.V(0, -0.5, 1.5)), 0)
	if shadowed.MaxComponent() >= lit.MaxComponent() {
		t.Fatalf("shadow did not darken: lit=%v shadowed=%v", lit, shadowed)
	}
	if tr2.Stats.ShadowRays == 0 {
		t.Fatal("no shadow rays counted")
	}
}

func TestRenderSectionsComposeToFullImage(t *testing.T) {
	// Rendering in sections must be pixel-identical to rendering whole.
	sc := BalancedScene(40, 11)
	const w, h = 48, 48
	full, _ := Render(sc, w, h)
	img := NewImage(w, h)
	for _, rows := range [][2]int{{0, 13}, {13, 30}, {30, 48}} {
		chunk, _ := RenderSection(sc, Section{W: w, H: h, Y0: rows[0], Y1: rows[1]})
		img.SetChunk(chunk)
	}
	if !img.Equal(full) {
		t.Fatal("sectioned render differs from full render")
	}
}

func TestRenderDeterministic(t *testing.T) {
	sc := UnbalancedScene(60, 42)
	a, sa := Render(sc, 32, 32)
	b, sb := Render(sc, 32, 32)
	if !a.Equal(b) {
		t.Fatal("render not deterministic")
	}
	if sa != sb {
		t.Fatalf("stats not deterministic: %+v vs %+v", sa, sb)
	}
}

func TestUnbalancedSceneIsActuallyUnbalanced(t *testing.T) {
	// The paper's dynamic scheduling story needs real cost skew: the most
	// expensive row must cost several times the cheapest.
	sc := UnbalancedScene(150, 5)
	costs := RowCosts(sc, 32, 32)
	lo, hi := math.Inf(1), 0.0
	for _, c := range costs {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	if hi < 3*lo {
		t.Fatalf("insufficient imbalance: min row cost %g, max %g", lo, hi)
	}
}

func TestBalancedSceneIsRoughlyBalanced(t *testing.T) {
	sc := BalancedScene(80, 5)
	costs := RowCosts(sc, 32, 32)
	var sum float64
	hi, lo := 0.0, math.Inf(1)
	for _, c := range costs {
		sum += c
		hi = math.Max(hi, c)
		lo = math.Min(lo, c)
	}
	mean := sum / float64(len(costs))
	if hi > 6*mean {
		t.Fatalf("balanced scene too skewed: max %g vs mean %g (min %g)", hi, mean, lo)
	}
}

func TestImageChunkPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetChunk with wrong width did not panic")
		}
	}()
	NewImage(10, 10).SetChunk(Chunk{Section: Section{W: 5, Y0: 0, Y1: 1}, Pix: make([]byte, 15)})
}

func TestImageSetChunkIdempotent(t *testing.T) {
	img := NewImage(4, 4)
	chunk := Chunk{Section: Section{W: 4, H: 4, Y0: 1, Y1: 2}, Pix: bytes.Repeat([]byte{9}, 12)}
	img.SetChunk(chunk)
	once := append([]byte(nil), img.Pix...)
	img.SetChunk(chunk)
	if !bytes.Equal(img.Pix, once) {
		t.Fatal("setting the same chunk twice changed the image")
	}
	if img.Pix[3*4] != 9 || img.Pix[0] != 0 || img.Pix[3*4*2] != 0 {
		t.Fatalf("chunk not applied to its rows only: %v", img.Pix)
	}
}

func TestPPMAndPNGWriters(t *testing.T) {
	sc := BalancedScene(10, 2)
	img, _ := Render(sc, 16, 12)
	var ppm bytes.Buffer
	if err := img.WritePPM(&ppm); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ppm.Bytes(), []byte("P6\n16 12\n255\n")) {
		t.Fatalf("PPM header wrong: %q", ppm.Bytes()[:20])
	}
	if ppm.Len() != 13+3*16*12 {
		t.Fatalf("PPM size = %d", ppm.Len())
	}
	var png bytes.Buffer
	if err := img.WritePNG(&png); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(png.Bytes(), []byte("\x89PNG")) {
		t.Fatal("PNG magic missing")
	}
}

func TestStatsAddAndCost(t *testing.T) {
	a := Stats{PrimaryRays: 1, SecondaryRays: 2, ShadowRays: 3, NodeVisits: 4, ObjectTests: 5}
	b := a
	a.Add(b)
	if a.PrimaryRays != 2 || a.ObjectTests != 10 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.Cost() <= 0 {
		t.Fatal("Cost must be positive")
	}
	if b.Cost()*2 != a.Cost() {
		t.Fatal("Cost must be linear")
	}
}

func TestSectionString(t *testing.T) {
	s := Section{Index: 2, W: 100, H: 80, Y0: 20, Y1: 40}
	if s.Rows() != 20 {
		t.Fatal("Rows")
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func vecAlmost(a, b geom.Vec3) bool {
	return almost(a.X, b.X) && almost(a.Y, b.Y) && almost(a.Z, b.Z)
}
