package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomMask draws a byte-backed mask with forced 0 and 255 pixels so
// both histogram extremes, the v == 1.0 top bin included, are always
// exercised.
func randomMask(rng *rand.Rand, w, h int) *Mask {
	m := NewByteMask(w, h)
	for i := range m.Bytes {
		switch rng.Intn(10) {
		case 0:
			m.Bytes[i] = 255
		case 1:
			m.Bytes[i] = 0
		default:
			m.Bytes[i] = uint8(rng.Intn(256))
		}
	}
	return m
}

// rleOf returns an RLE-backed copy of a byte-backed mask.
func rleOf(m *Mask) *Mask {
	return &Mask{W: m.W, H: m.H, RLE: EncodeRLE(m.Bytes, m.W, m.H)}
}

// refExactCP is the float reference for ExactCP: every pixel decoded
// with At and tested with ValueRange.Contains.
func refExactCP(m *Mask, roi Rect, vr ValueRange) int64 {
	roi = roi.Intersect(m.Bounds())
	var n int64
	for y := roi.Y0; y < roi.Y1; y++ {
		for x := roi.X0; x < roi.X1; x++ {
			if vr.Contains(float64(m.At(x, y))) {
				n++
			}
		}
	}
	return n
}

// refBuild is the float reference for Build's counts: every decoded
// pixel is binned by binary search over the edges (the largest j with
// Edges[j] <= v), then each cell is suffix-summed.
func refBuild(m *Mask, cfg Config) ([]int32, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	g := gridOf(m.W, m.H, cfg)
	cum := make([]int32, g.slotLen())
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			v := float64(m.At(x, y))
			j := sort.SearchFloat64s(cfg.Edges, v)
			if j == len(cfg.Edges) || cfg.Edges[j] != v {
				j--
			}
			cum[((y/g.CellH)*g.GW+x/g.CellW)*g.K+j]++
		}
	}
	for cell := 0; cell < g.GW*g.GH; cell++ {
		row := cum[cell*g.K : (cell+1)*g.K]
		for j := g.K - 2; j >= 0; j-- {
			row[j] += row[j+1]
		}
	}
	return cum, nil
}

func randomConfig(rng *rand.Rand) Config {
	var edges []float64
	switch rng.Intn(3) {
	case 0:
		edges = DefaultEdges(2 + rng.Intn(15))
	case 1:
		// Jagged, unsorted, possibly duplicated edges: Normalize must cope.
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			edges = append(edges, float64(rng.Intn(100))/100)
		}
	default:
		edges = []float64{0, 0.5, 0.9, 0.95, 0.99}
	}
	return Config{CellW: 1 + rng.Intn(9), CellH: 1 + rng.Intn(9), Edges: edges}
}

func randomROI(rng *rand.Rand, w, h int) Rect {
	switch rng.Intn(8) {
	case 0:
		return Rect{0, 0, w, h}
	case 1: // 1-pixel
		x, y := rng.Intn(w), rng.Intn(h)
		return Rect{x, y, x + 1, y + 1}
	case 2: // out of bounds / degenerate
		return Rect{w - 2, h - 2, w + 5, h + 5}
	case 3:
		return Rect{} // empty
	}
	x0, y0 := rng.Intn(w), rng.Intn(h)
	x1, y1 := x0+1+rng.Intn(w-x0), y0+1+rng.Intn(h-y0)
	return Rect{x0, y0, x1, y1}
}

func randomVR(rng *rand.Rand) ValueRange {
	switch rng.Intn(6) {
	case 0:
		return ValueRange{Lo: rng.Float64(), Hi: 1.0} // top-closed
	case 1:
		return ValueRange{Lo: 1.0, Hi: 1.0} // only saturated pixels
	case 2:
		return ValueRange{Lo: 0, Hi: 1.0} // everything
	case 3:
		return ValueRange{Lo: 0.7, Hi: 0.3} // empty
	case 4:
		// Aligned to DefaultEdges(10) boundaries.
		lo := float64(rng.Intn(10)) / 10
		return ValueRange{Lo: lo, Hi: 1.0}
	}
	lo := rng.Float64()
	return ValueRange{Lo: lo, Hi: lo + rng.Float64()*(1-lo)}
}

// TestCPBoundsAdmissible is the CHI admissibility property: for random
// masks, configs, ROIs and value ranges, CPBounds always brackets the
// exact CP.
func TestCPBoundsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		w, h := 4+rng.Intn(37), 4+rng.Intn(37)
		m := randomMask(rng, w, h)
		chi, err := Build(m, randomConfig(rng))
		if err != nil {
			t.Fatalf("iter %d: Build: %v", iter, err)
		}
		for probe := 0; probe < 8; probe++ {
			roi := randomROI(rng, w, h)
			vr := randomVR(rng)
			exact := ExactCP(m, roi, vr)
			b := chi.CPBounds(roi, vr)
			if exact < b.Lo || exact > b.Hi {
				t.Fatalf("iter %d: CPBounds %v does not bracket exact %d (mask %dx%d cells %dx%d edges %v roi %v vr %v)",
					iter, b, exact, w, h, chi.CellW, chi.CellH, chi.Edges, roi, vr)
			}
			if b.Lo < 0 || b.Hi > int64(w*h) {
				t.Fatalf("iter %d: CPBounds %v outside [0, %d]", iter, b, w*h)
			}
		}
	}
	// Byte- and RLE-backed masks resolve range endpoints by byte
	// threshold. Ranges on the workloads' 0.05 grid land some endpoints
	// on an edge's threshold and leave others between two.
	for iter := 0; iter < 1000; iter++ {
		w, h := 4+rng.Intn(37), 4+rng.Intn(37)
		pix := testPixels(rng, w, h)
		cfg := randomConfig(rng)
		for _, m := range []*Mask{{W: w, H: h, Bytes: pix}, {W: w, H: h, RLE: EncodeRLE(pix, w, h)}} {
			chi, err := Build(m, cfg)
			if err != nil {
				t.Fatalf("iter %d: Build: %v", iter, err)
			}
			for probe := 0; probe < 8; probe++ {
				roi := randomROI(rng, w, h)
				vr := randomVR(rng)
				if probe%2 == 0 {
					vr = gridVR(rng)
				}
				exact := ExactCP(m, roi, vr)
				b := chi.CPBounds(roi, vr)
				if exact < b.Lo || exact > b.Hi || b.Lo < 0 || b.Hi > int64(w*h) {
					t.Fatalf("iter %d: byte-built CPBounds %v vs exact %d (mask %dx%d rle %v cells %dx%d edges %v roi %v vr %v)",
						iter, b, exact, w, h, m.RLE != nil, chi.CellW, chi.CellH, chi.Edges, roi, vr)
				}
			}
		}
	}
}

// gridVR draws a range the way the workload generators do: lo on the
// 0.05 grid, top-closed or a band 0.1-0.2 wide.
func gridVR(rng *rand.Rand) ValueRange {
	lo := 0.05 * float64(rng.Intn(20))
	if rng.Intn(2) == 0 {
		return ValueRange{Lo: lo, Hi: 1.0}
	}
	return ValueRange{Lo: lo, Hi: lo + 0.1 + 0.05*float64(rng.Intn(3))}
}

// TestCPBoundsExactWhenAligned checks that cell-aligned ROIs with
// edge-aligned ranges produce zero-slack bounds, including the
// v == 1.0 top bin.
func TestCPBoundsExactWhenAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 300; iter++ {
		cw, ch := 2+rng.Intn(6), 2+rng.Intn(6)
		gw, gh := 1+rng.Intn(5), 1+rng.Intn(5)
		w, h := cw*gw, ch*gh
		m := randomMask(rng, w, h)
		chi, err := Build(m, Config{CellW: cw, CellH: ch, Edges: DefaultEdges(10)})
		if err != nil {
			t.Fatal(err)
		}
		cx0, cy0 := rng.Intn(gw), rng.Intn(gh)
		roi := Rect{
			cx0 * cw, cy0 * ch,
			(cx0 + 1 + rng.Intn(gw-cx0)) * cw, (cy0 + 1 + rng.Intn(gh-cy0)) * ch,
		}
		vr := ValueRange{Lo: float64(rng.Intn(10)) / 10, Hi: 1.0}
		exact := ExactCP(m, roi, vr)
		b := chi.CPBounds(roi, vr)
		if b.Lo != exact || b.Hi != exact {
			t.Fatalf("aligned bounds not exact: %v vs %d (roi %v vr %v)", b, exact, roi, vr)
		}
	}
	// On a byte-built CHI an endpoint is exact when its byte is an
	// edge's threshold, even when the float is off the edge: computed
	// at run time as the workloads do, 0.05*6 = 0.30000000000000004
	// selects the bytes >= 77, as edge 0.3 does.
	for iter := 0; iter < 300; iter++ {
		cw, ch := 2+rng.Intn(6), 2+rng.Intn(6)
		gw, gh := 1+rng.Intn(5), 1+rng.Intn(5)
		w, h := cw*gw, ch*gh
		m := randomMask(rng, w, h)
		chi, err := Build(m, Config{CellW: cw, CellH: ch, Edges: DefaultEdges(10)})
		if err != nil {
			t.Fatal(err)
		}
		cx0, cy0 := rng.Intn(gw), rng.Intn(gh)
		roi := Rect{
			cx0 * cw, cy0 * ch,
			(cx0 + 1 + rng.Intn(gw-cx0)) * cw, (cy0 + 1 + rng.Intn(gh-cy0)) * ch,
		}
		for _, step := range []int{6, 12, 14} {
			vr := ValueRange{Lo: 0.05 * float64(step), Hi: 1.0}
			exact := ExactCP(m, roi, vr)
			if b := chi.CPBounds(roi, vr); b.Lo != exact || b.Hi != exact {
				t.Fatalf("byte-aligned bounds not exact: %v vs %d (roi %v vr %v)", b, exact, roi, vr)
			}
		}
	}
}

// TestCPBoundsBelowDomain pins ranges that select nothing — one lying
// wholly below 0, and ones with a NaN endpoint — on byte- and
// RLE-backed masks alike: ExactCP is 0, and the bounds are exactly 0
// without reading before a cell's first count.
func TestCPBoundsBelowDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, m := range []*Mask{randomMask(rng, 16, 16), rleOf(randomMask(rng, 16, 16))} {
		chi, err := Build(m, Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
		if err != nil {
			t.Fatal(err)
		}
		for _, roi := range []Rect{{0, 0, 16, 16}, {0, 0, 3, 3}, {5, 5, 9, 9}} {
			for _, vr := range []ValueRange{{Lo: -0.5, Hi: -0.25}, {Lo: 0, Hi: math.NaN()}, {Lo: math.NaN(), Hi: 0.5}, {Lo: math.NaN(), Hi: 1}} {
				if b := chi.CPBounds(roi, vr); b != (Bounds{}) || ExactCP(m, roi, vr) != 0 {
					t.Fatalf("range %v over %v: bounds %v, exact %d, want 0", vr, roi, b, ExactCP(m, roi, vr))
				}
			}
		}
	}
}

// TestCPTopBinSaturated pins the v == 1.0 edge: a fully saturated mask
// must report every pixel in any top-closed range and zero in [x, 1).
func TestCPTopBinSaturated(t *testing.T) {
	m := NewByteMask(8, 8)
	for i := range m.Bytes {
		m.Bytes[i] = 255
	}
	if got := ExactCP(m, m.Bounds(), ValueRange{Lo: 0.9, Hi: 1.0}); got != 64 {
		t.Fatalf("top-closed CP over saturated mask = %d, want 64", got)
	}
	if got := ExactCP(m, m.Bounds(), ValueRange{Lo: 0.9, Hi: 0.999}); got != 0 {
		t.Fatalf("half-open CP below 1.0 over saturated mask = %d, want 0", got)
	}
	chi, err := Build(m, Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	if err != nil {
		t.Fatal(err)
	}
	if b := chi.CPBounds(m.Bounds(), ValueRange{Lo: 0.9, Hi: 1.0}); b.Lo != 64 || b.Hi != 64 {
		t.Fatalf("CHI bounds for saturated top bin = %v, want exact 64", b)
	}
}

// mapLoader serves masks from memory for engine tests.
type mapLoader struct {
	masks  map[int64]*Mask
	loaded int
}

func (l *mapLoader) LoadMask(id int64) (*Mask, error) {
	m, ok := l.masks[id]
	if !ok {
		return nil, fmt.Errorf("no mask %d", id)
	}
	l.loaded++
	return m, nil
}

// buildEngineFixture returns n random masks with a full index over
// them.
func buildEngineFixture(rng *rand.Rand, n, w, h int) (*mapLoader, *MemoryIndex, []int64) {
	loader := &mapLoader{masks: map[int64]*Mask{}}
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	ids := make([]int64, 0, n)
	for i := 1; i <= n; i++ {
		id := int64(i)
		m := randomMask(rng, w, h)
		loader.masks[id] = m
		chi, _ := Build(m, idx.Config())
		idx.Add(id, chi)
		ids = append(ids, id)
	}
	return loader, idx, ids
}

// TestFilterMatchesBruteForce cross-checks the filter–verification
// pipeline against direct evaluation.
func TestFilterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	loader, idx, ids := buildEngineFixture(rng, 60, 16, 16)
	for iter := 0; iter < 50; iter++ {
		roi := randomROI(rng, 16, 16)
		vr := randomVR(rng)
		thresh := int64(rng.Intn(100))
		terms := []CPTerm{{Region: FixedRegion(roi), Range: vr}}
		pred := Cmp{T: 0, Op: OpGt, C: thresh}

		env := &Env{Loader: loader, Index: idx}
		got, st, err := Filter(ctx, env, ids, terms, pred)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, id := range ids {
			if ExactCP(loader.masks[id], roi, vr) > thresh {
				want = append(want, id)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iter %d: filter mismatch: got %v want %v (stats %v)", iter, got, want, st)
		}
		if st.Loaded+st.AcceptedByBounds+st.RejectedByBounds != st.Targets {
			t.Fatalf("iter %d: stats don't partition targets: %v", iter, st)
		}
	}
}

// TestTopKMatchesBruteForce cross-checks TopK pruning.
func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ctx := context.Background()
	loader, idx, ids := buildEngineFixture(rng, 60, 16, 16)
	for iter := 0; iter < 40; iter++ {
		roi := randomROI(rng, 16, 16)
		vr := randomVR(rng)
		k := 1 + rng.Intn(12)
		ord := Order(rng.Intn(2))
		terms := []CPTerm{{Region: FixedRegion(roi), Range: vr}}

		got, _, err := TopK(ctx, &Env{Loader: loader, Index: idx}, ids, terms, 0, k, ord)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Scored, 0, len(ids))
		for _, id := range ids {
			want = append(want, Scored{ID: id, Score: float64(ExactCP(loader.masks[id], roi, vr))})
		}
		SortScored(want, ord)
		want = want[:k]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iter %d: topk mismatch (k=%d %v):\ngot  %v\nwant %v", iter, k, ord, got, want)
		}
	}
}

// TestAggTopKMatchesBruteForce cross-checks group aggregation for
// every aggregate function.
func TestAggTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	loader, idx, ids := buildEngineFixture(rng, 60, 16, 16)
	var groups []Group
	for i := 0; i < len(ids); i += 4 {
		groups = append(groups, Group{Key: int64(i / 4), IDs: ids[i:min(i+4, len(ids))]})
	}
	for iter := 0; iter < 40; iter++ {
		roi := randomROI(rng, 16, 16)
		vr := randomVR(rng)
		k := 1 + rng.Intn(8)
		agg := Agg(rng.Intn(4))
		terms := []CPTerm{{Region: FixedRegion(roi), Range: vr}}

		got, _, err := AggTopK(ctx, &Env{Loader: loader, Index: idx}, groups, terms, 0, agg, k, Desc)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Scored, 0, len(groups))
		for _, g := range groups {
			vals := make([]float64, len(g.IDs))
			for i, id := range g.IDs {
				vals[i] = float64(ExactCP(loader.masks[id], roi, vr))
			}
			want = append(want, Scored{ID: g.Key, Score: AggExact(agg, vals)})
		}
		SortScored(want, Desc)
		want = want[:k]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iter %d: aggtopk mismatch (%v k=%d):\ngot  %v\nwant %v", iter, agg, k, got, want)
		}
	}
}

// TestIncrementalObserve checks that verified masks enter the index
// and later identical queries stop loading masks.
func TestIncrementalObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ctx := context.Background()
	loader, _, ids := buildEngineFixture(rng, 40, 16, 16)
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	env := &Env{Loader: loader, Index: idx, OnVerify: idx.Observe}
	terms := []CPTerm{{Region: FixedRegion(Rect{0, 0, 16, 16}), Range: ValueRange{Lo: 0.5, Hi: 1.0}}}
	pred := Cmp{T: 0, Op: OpGt, C: 100}

	_, st1, err := Filter(ctx, env, ids, terms, pred)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Loaded != len(ids) {
		t.Fatalf("cold filter should verify everything, loaded %d of %d", st1.Loaded, len(ids))
	}
	if idx.Len() != len(ids) {
		t.Fatalf("Observe indexed %d masks, want %d", idx.Len(), len(ids))
	}
	_, st2, err := Filter(ctx, env, ids, terms, pred)
	if err != nil {
		t.Fatal(err)
	}
	// A full-mask, edge-aligned term gives exact bounds: nothing to load.
	if st2.Loaded != 0 {
		t.Fatalf("warm filter loaded %d masks, want 0 (stats %v)", st2.Loaded, st2)
	}
}

// TestIndexRoundTrip checks Encode/ReadMemoryIndex preserve bounds.
func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	_, idx, ids := buildEngineFixture(rng, 10, 16, 16)
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMemoryIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != idx.Len() || back.Config().Key() != idx.Config().Key() {
		t.Fatalf("round trip lost state: %d/%s vs %d/%s", back.Len(), back.Config().Key(), idx.Len(), idx.Config().Key())
	}
	roi := Rect{3, 3, 13, 11}
	vr := ValueRange{Lo: 0.35, Hi: 1.0}
	for _, id := range ids {
		a, _ := idx.ChiFor(id)
		b, _ := back.ChiFor(id)
		if a.CPBounds(roi, vr) != b.CPBounds(roi, vr) {
			t.Fatalf("mask %d: bounds differ after round trip", id)
		}
	}
}

// FuzzCPBounds checks the kernels and the bounds rule on arbitrary
// pixels, ROIs and range endpoints (NaN and ±Inf included): byte and
// RLE ExactCP equal refExactCP, and CPBounds brackets that count
// within [0, area].
func FuzzCPBounds(f *testing.F) {
	seed := []byte{0, 255, 77, 76, 128, 3, 200, 255, 0, 1, 51, 52}
	f.Add(seed, uint8(4), uint8(0x21), uint8(10), int8(0), int8(0), int8(4), int8(3), math.Float64bits(0.05*6), math.Float64bits(1))
	f.Add(seed, uint8(3), uint8(0x11), uint8(4), int8(1), int8(-1), int8(9), int8(2), math.Float64bits(0.2), math.Float64bits(0.35))
	f.Add(seed, uint8(6), uint8(0x32), uint8(16), int8(-2), int8(0), int8(5), int8(5), math.Float64bits(0), math.Float64bits(math.NaN()))
	f.Add(seed, uint8(2), uint8(0x11), uint8(3), int8(0), int8(0), int8(2), int8(6), math.Float64bits(math.Inf(-1)), math.Float64bits(math.Inf(1)))
	f.Fuzz(func(t *testing.T, pix []byte, w, cell, nEdges uint8, x0, y0, x1, y1 int8, loBits, hiBits uint64) {
		if w == 0 || len(pix) < int(w) {
			return
		}
		h := min(len(pix)/int(w), 64)
		pix = pix[:int(w)*h]
		bm := &Mask{W: int(w), H: h, Bytes: pix}
		roi := Rect{int(x0), int(y0), int(x1), int(y1)}
		vr := ValueRange{Lo: math.Float64frombits(loBits), Hi: math.Float64frombits(hiBits)}
		want := refExactCP(bm, roi, vr)
		if got, rgot := ExactCP(bm, roi, vr), ExactCP(rleOf(bm), roi, vr); got != want || rgot != want {
			t.Fatalf("ExactCP byte %d, RLE %d, reference %d (roi %v vr %v)", got, rgot, want, roi, vr)
		}
		cfg := Config{CellW: 1 + int(cell&7), CellH: 1 + int(cell>>4&7), Edges: DefaultEdges(1 + int(nEdges%16))}
		chi, err := Build(bm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		area := int64(roi.Intersect(bm.Bounds()).Area())
		if b := chi.CPBounds(roi, vr); b.Lo < 0 || b.Lo > want || want > b.Hi || b.Hi > area {
			t.Fatalf("CPBounds %v vs exact %d, area %d (roi %v vr %v cells %dx%d edges %v)",
				b, want, area, roi, vr, cfg.CellW, cfg.CellH, chi.Edges)
		}
	})
}
