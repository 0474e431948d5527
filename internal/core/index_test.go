package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadMemoryIndexRejectsCorruption corrupts one CHI of a small
// encoded index at a time; each corruption must fail the read, while
// the untouched encoding reads back.
func TestReadMemoryIndexRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	_, idx, ids := buildEngineFixture(rng, 4, 16, 16)
	var clean bytes.Buffer
	if err := idx.Encode(&clean); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMemoryIndex(bytes.NewReader(clean.Bytes())); err != nil {
		t.Fatalf("clean encoding: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*CHI)
	}{
		{"count rises along the edges", func(c *CHI) { c.Cum[1] = c.Cum[0] + 1 }},
		{"first count is not the cell area", func(c *CHI) { c.Cum[0]-- }},
		{"negative count", func(c *CHI) { c.Cum[len(c.Cum)-1] = -1 }},
		{"grid does not fit the mask", func(c *CHI) { c.GW++ }},
		{"counts missing", func(c *CHI) { c.Cum = c.Cum[:len(c.Cum)-1] }},
		{"config differs from the envelope", func(c *CHI) { c.CellW++ }},
	} {
		var f indexFile
		if err := gob.NewDecoder(bytes.NewReader(clean.Bytes())).Decode(&f); err != nil {
			t.Fatal(err)
		}
		c.mutate(f.Chis[ids[2]])
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMemoryIndex(&buf); err == nil {
			t.Errorf("%s: ReadMemoryIndex accepted the corrupt index", c.name)
		}
	}
}

// TestArenaReadsDuringObserve runs BoundCands on a worker pool while
// other goroutines Observe new ids from byte- and RLE-backed masks,
// growing the chunk directory under the readers. Every read must be
// either unindexed or exactly the built CHI's own CPBounds.
func TestArenaReadsDuringObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 320 // five chunks
	cfg := Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)}
	fixed := Rect{3, 2, 15, 13}
	six, fourteen := 6.0, 14.0
	vr := ValueRange{Lo: 0.05 * six, Hi: 0.05 * fourteen} // off the edges by an ulp
	object := func(id int64) Rect { return Rect{int(id % 5), int(id % 3), 16 - int(id%4), 16} }
	terms := []CPTerm{
		{Region: FixedRegion(fixed), Range: vr, Spec: RegionSpec{Kind: RegionRect, Rect: fixed}},
		{Region: object, Range: vr},
	}
	masks := make([]*Mask, n)
	want := make([][2]Bounds, n)
	for i := range masks {
		masks[i] = randomMask(rng, 16, 16)
		if i%2 == 1 {
			masks[i] = rleOf(masks[i])
		}
		chi, err := Build(masks[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = [2]Bounds{chi.CPBounds(fixed, vr), chi.CPBounds(object(int64(i)), vr)}
	}
	idx := NewMemoryIndex(cfg)
	for i := 0; i < 16; i++ {
		idx.Observe(int64(i), masks[i])
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	env := &Env{Index: idx, Exec: Exec{Workers: 4}}

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := n - 1 - w; i >= 16; i -= 2 {
				idx.Observe(int64(i), masks[i])
			}
		}(w)
	}
	go func() { wg.Wait(); done.Store(true) }()
	for last := false; !last; {
		last = done.Load()
		for ti, term := range terms {
			cands, _, err := BoundCands(context.Background(), env, ids, term)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cands {
				if c.Indexed && c.B != want[i][ti] {
					t.Fatalf("term %d mask %d: arena bounds %v, built CHI's %v", ti, i, c.B, want[i][ti])
				}
				if last && !c.Indexed {
					t.Fatalf("term %d mask %d: unindexed after every Observe returned", ti, i)
				}
			}
		}
	}
}

// FuzzReadMemoryIndex decodes arbitrary bytes as an index file. The
// input either fails to read, or every id it indexes yields bounds
// that never panic and satisfy 0 <= Lo <= Hi <= the region's area.
func FuzzReadMemoryIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	idx := NewMemoryIndex(Config{CellW: 3, CellH: 3, Edges: DefaultEdges(4)})
	idx.Observe(0, randomMask(rng, 7, 5))
	idx.Observe(1, rleOf(randomMask(rng, 7, 5)))
	idx.Observe(70, randomMask(rng, 7, 5))
	var seed bytes.Buffer
	if err := idx.Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadMemoryIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		ids := ix.ids()
		if len(ids) != ix.Len() {
			t.Fatalf("%d ids readable, Len %d", len(ids), ix.Len())
		}
		if len(ids) == 0 {
			return
		}
		g := ix.dir.Load().g
		rois := []Rect{{0, 0, g.W, g.H}, {1, 1, g.W - 1, g.H}, {g.W / 2, 0, g.W + 3, g.H/2 + 1}}
		var terms []CPTerm
		for _, roi := range rois {
			for _, vr := range []ValueRange{{0, 1}, {0.3, 1}, {0.3, 0.55}, {0.5, 0.25}, {-0.5, -0.25}, {1, 1}} {
				terms = append(terms, CPTerm{Range: vr, Spec: RegionSpec{Kind: RegionRect, Rect: roi}})
			}
		}
		env := &Env{Index: ix}
		plans := ix.plans(terms)
		bs := make([]Bounds, len(terms))
		var st Stats
		for _, id := range ids {
			if !env.termBounds(id, plans, bs, &st) {
				t.Fatalf("id %d listed but unreadable", id)
			}
			for i, b := range bs {
				area := int64(terms[i].Spec.Rect.Intersect(Rect{0, 0, g.W, g.H}).Area())
				if b.Lo < 0 || b.Lo > b.Hi || b.Hi > area {
					t.Fatalf("id %d term %v: bounds %v outside [0, %d]", id, terms[i].Range, b, area)
				}
			}
		}
	})
}

// TestReadMemoryIndexCompat reads chi.gob envelopes in the two older
// CHI shapes: one whose CHIs carry a ByteBuilt flag, and one from
// before the flag existed. Both read back, and every id's bounds equal
// those of a fresh Build of its mask.
func TestReadMemoryIndexCompat(t *testing.T) {
	type flaggedCHI struct {
		W, H, CellW, CellH, GW, GH int
		Edges                      []float64
		Cum                        []int32
		ByteBuilt                  bool
	}
	type plainCHI struct {
		W, H, CellW, CellH, GW, GH int
		Edges                      []float64
		Cum                        []int32
	}
	rng := rand.New(rand.NewSource(18))
	cfg, err := Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	fresh := make([]*CHI, n)
	flagged := make(map[int64]*flaggedCHI, n)
	plain := make(map[int64]*plainCHI, n)
	for i := range fresh {
		m := randomMask(rng, 16, 16)
		if i%2 == 1 {
			m = rleOf(m)
		}
		c, err := Build(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = c
		flagged[int64(i)] = &flaggedCHI{c.W, c.H, c.CellW, c.CellH, c.GW, c.GH, c.Edges, c.Cum, true}
		plain[int64(i)] = &plainCHI{c.W, c.H, c.CellW, c.CellH, c.GW, c.GH, c.Edges, c.Cum}
	}
	for _, file := range []struct {
		name string
		buf  *bytes.Buffer
	}{{"flagged", encodeEnvelope(t, cfg, flagged)}, {"plain", encodeEnvelope(t, cfg, plain)}} {
		ix, err := ReadMemoryIndex(file.buf)
		if err != nil {
			t.Fatalf("%s file: %v", file.name, err)
		}
		if ix.Len() != n {
			t.Fatalf("%s file: %d ids indexed, want %d", file.name, ix.Len(), n)
		}
		for id, c := range fresh {
			got, _ := ix.ChiFor(int64(id))
			for probe := 0; probe < 20; probe++ {
				roi := randomROI(rng, 16, 16)
				vr := gridVR(rng)
				if b, want := got.CPBounds(roi, vr), c.CPBounds(roi, vr); b != want {
					t.Fatalf("%s file id %d: bounds %v, fresh Build's %v (roi %v vr %v)", file.name, id, b, want, roi, vr)
				}
			}
		}
	}
}

// encodeEnvelope gob-encodes an index file whose CHIs have type C.
func encodeEnvelope[C any](t *testing.T, cfg Config, chis map[int64]*C) *bytes.Buffer {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Cfg  Config
		Chis map[int64]*C
	}{cfg, chis})
	if err != nil {
		t.Fatal(err)
	}
	return &buf
}
