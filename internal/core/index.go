package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Slot states. A slot is written once: a writer claims it by moving
// it from slotAbsent to slotWriting, fills its counts, then publishes
// it. Readers treat every other state as absent.
const (
	slotAbsent uint32 = iota
	slotWriting
	slotPublished
)

const (
	// chunkShift sets the slots per chunk (64).
	chunkShift = 6
	chunkSlots = 1 << chunkShift
	// maxIndexID bounds the ids an index holds: the chunk directory
	// spans the largest id, so this caps it at 1M entries. Other ids
	// are never indexed and fall back to verification.
	maxIndexID = 1 << 26
)

// chunk holds the counts of chunkSlots consecutive ids.
type chunk struct {
	state [chunkSlots]atomic.Uint32
	cum   []int32
}

// arena is one published chunk directory. Its grid is fixed by the
// first CHI the index stores.
type arena struct {
	g      grid
	chunks []atomic.Pointer[chunk]
}

// MemoryIndex is the in-memory CHI collection: the counts of every
// indexed mask in fixed-size, id-indexed chunks over one grid, with
// reads that take no lock. It serves both the eager ("vanilla
// MaskSearch") mode, where every mask is indexed up front, and the
// incremental mode (§3.6), where Observe grows the index as queries
// verify masks. A nil *MemoryIndex is an empty index.
type MemoryIndex struct {
	cfg    Config
	cfgErr error // why cfg cannot index anything
	thr    []int // byte threshold of each edge
	mu     sync.Mutex
	dir    atomic.Pointer[arena] // replaced, under mu, only to grow
	n      atomic.Int64
}

// NewMemoryIndex returns an empty index that builds CHIs with cfg.
func NewMemoryIndex(cfg Config) *MemoryIndex {
	n, err := cfg.Normalize()
	if err == nil {
		cfg = n
	}
	return &MemoryIndex{cfg: cfg, cfgErr: err, thr: byteThresholds(cfg.Edges)}
}

// Config returns the build configuration of the index.
func (ix *MemoryIndex) Config() Config { return ix.cfg }

// counts returns id's counts; ok is false when id is not indexed.
func (ix *MemoryIndex) counts(id int64) (cum []int32, ok bool) {
	if ix == nil {
		return nil, false
	}
	a := ix.dir.Load()
	if a == nil || id < 0 || id>>chunkShift >= int64(len(a.chunks)) {
		return nil, false
	}
	c := a.chunks[id>>chunkShift].Load()
	if c == nil || c.state[id&(chunkSlots-1)].Load() != slotPublished {
		return nil, false
	}
	n := a.g.slotLen()
	off := int(id&(chunkSlots-1)) * n
	return c.cum[off : off+n : off+n], true
}

// plans compiles one bound plan per term against the index's grid. It
// returns nil when the index holds no CHI yet: every target is then
// unindexed for the stage call that asked.
func (ix *MemoryIndex) plans(terms []CPTerm) []boundPlan {
	if ix == nil {
		return nil
	}
	a := ix.dir.Load()
	if a == nil {
		return nil
	}
	out := make([]boundPlan, len(terms))
	for i, t := range terms {
		out[i] = compilePlan(a.g, ix.thr, t)
	}
	return out
}

// ChiFor returns a read-only view of id's CHI, or (nil, nil) when id
// is not indexed. The view's Cum aliases the index.
func (ix *MemoryIndex) ChiFor(id int64) (*CHI, error) {
	cum, ok := ix.counts(id)
	if !ok {
		return nil, nil
	}
	g := ix.dir.Load().g
	return &CHI{
		W: g.W, H: g.H, CellW: g.CellW, CellH: g.CellH, GW: g.GW, GH: g.GH,
		Edges: ix.cfg.Edges, Cum: cum,
	}, nil
}

// check validates chi for the index and returns its grid: the
// index's config, a consistent geometry, and per cell counts that
// start at the cell area and never increase along the edges.
func (ix *MemoryIndex) check(chi *CHI) (grid, error) {
	if ix.cfgErr != nil {
		return grid{}, ix.cfgErr
	}
	if chi == nil {
		return grid{}, fmt.Errorf("core: nil CHI")
	}
	if chi.CellW != ix.cfg.CellW || chi.CellH != ix.cfg.CellH || !slices.Equal(chi.Edges, ix.cfg.Edges) {
		return grid{}, fmt.Errorf("core: CHI config %s does not match the index's %s", chi.Config().Key(), ix.cfg.Key())
	}
	if chi.W <= 0 || chi.H <= 0 || int64(chi.W)*int64(chi.H) > math.MaxInt32 {
		return grid{}, fmt.Errorf("core: CHI of a %dx%d mask", chi.W, chi.H)
	}
	g := gridOf(chi.W, chi.H, ix.cfg)
	if chi.GW != g.GW || chi.GH != g.GH || len(chi.Cum) != g.slotLen() {
		return grid{}, fmt.Errorf("core: CHI of a %dx%d mask has a %dx%d grid and %d counts, want %dx%d and %d",
			chi.W, chi.H, chi.GW, chi.GH, len(chi.Cum), g.GW, g.GH, g.slotLen())
	}
	for cell := 0; cell < g.GW*g.GH; cell++ {
		row := chi.Cum[cell*g.K : (cell+1)*g.K]
		if area := g.cellRect(cell%g.GW, cell/g.GW).Area(); int(row[0]) != area {
			return grid{}, fmt.Errorf("core: CHI cell %d counts %d pixels, want its area %d", cell, row[0], area)
		}
		for j := 1; j < g.K; j++ {
			if row[j] > row[j-1] || row[j] < 0 {
				return grid{}, fmt.Errorf("core: CHI cell %d count %d at edge %d after %d", cell, row[j], j, row[j-1])
			}
		}
	}
	return g, nil
}

// Add stores a prebuilt CHI for id after validating it (see check).
// Adding an id that is already indexed is a no-op: Build is
// deterministic, so the stored counts are already chi's. An id
// outside [0, 2^26) is not indexed, and its queries verify instead.
func (ix *MemoryIndex) Add(id int64, chi *CHI) error {
	g, err := ix.check(chi)
	if err != nil {
		return err
	}
	if id < 0 || id >= maxIndexID {
		return fmt.Errorf("core: mask id %d outside the index's [0, %d)", id, maxIndexID)
	}
	c, err := ix.chunk(id, g)
	if err != nil {
		return err
	}
	st := &c.state[id&(chunkSlots-1)]
	if !st.CompareAndSwap(slotAbsent, slotWriting) {
		return nil
	}
	n := g.slotLen()
	copy(c.cum[int(id&(chunkSlots-1))*n:][:n], chi.Cum)
	st.Store(slotPublished)
	ix.n.Add(1)
	return nil
}

// chunk returns the chunk holding id, allocating it (and growing the
// directory) under mu when it does not exist yet.
func (ix *MemoryIndex) chunk(id int64, g grid) (*chunk, error) {
	ci := int(id >> chunkShift)
	if a := ix.dir.Load(); a != nil && a.g == g && ci < len(a.chunks) {
		if c := a.chunks[ci].Load(); c != nil {
			return c, nil
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	a := ix.dir.Load()
	if a == nil {
		a = &arena{g: g}
	} else if a.g != g {
		return nil, fmt.Errorf("core: CHI of a %dx%d mask in an index of %dx%d masks", g.W, g.H, a.g.W, a.g.H)
	}
	if ci >= len(a.chunks) {
		grown := &arena{g: g, chunks: make([]atomic.Pointer[chunk], max(ci+1, 2*len(a.chunks)))}
		for i := range a.chunks {
			grown.chunks[i].Store(a.chunks[i].Load())
		}
		a = grown
	}
	c := a.chunks[ci].Load()
	if c == nil {
		c = &chunk{cum: make([]int32, chunkSlots*g.slotLen())}
		a.chunks[ci].Store(c)
	}
	ix.dir.Store(a)
	return c, nil
}

// Observe indexes a mask that a query just loaded, if it is not
// indexed yet. Its signature matches Env.OnVerify so the incremental
// mode is wired as OnVerify: idx.Observe. It never retains m: the CHI
// is fully built before it returns, so the engine may recycle the
// mask's buffers immediately afterwards.
//
// Two goroutines observing the same unindexed mask may both build its
// CHI; the first to claim the slot stores it and the other's Add is a
// no-op. Both builds are identical, and Build runs outside any lock,
// so a slow build never blocks a reader.
func (ix *MemoryIndex) Observe(id int64, m *Mask) {
	if _, ok := ix.counts(id); ok {
		return
	}
	chi, err := Build(m, ix.cfg)
	if err != nil {
		return
	}
	_ = ix.Add(id, chi) // a mask the index cannot hold stays unindexed
}

// Len returns the number of indexed masks.
func (ix *MemoryIndex) Len() int { return int(ix.n.Load()) }

// SizeBytes is the index footprint: the counts of every indexed mask
// plus one copy of the config.
func (ix *MemoryIndex) SizeBytes() int64 {
	var slot int64
	if a := ix.dir.Load(); a != nil {
		slot = int64(a.g.slotLen()) * 4
	}
	return ix.n.Load()*slot + int64(len(ix.cfg.Edges))*8 + 16
}

// ids returns the indexed ids in ascending order.
func (ix *MemoryIndex) ids() []int64 {
	var out []int64
	if a := ix.dir.Load(); a != nil {
		for ci := range a.chunks {
			c := a.chunks[ci].Load()
			if c == nil {
				continue
			}
			for i := range c.state {
				if c.state[i].Load() == slotPublished {
					out = append(out, int64(ci)<<chunkShift|int64(i))
				}
			}
		}
	}
	return out
}

// indexFile is the gob persistence envelope.
type indexFile struct {
	Cfg  Config
	Chis map[int64]*CHI
}

// Encode serializes the index so it can be reloaded with
// ReadMemoryIndex (the DB facade persists to <db>/chi.gob).
func (ix *MemoryIndex) Encode(w io.Writer) error {
	chis := make(map[int64]*CHI, ix.Len())
	for _, id := range ix.ids() {
		chis[id], _ = ix.ChiFor(id)
	}
	return gob.NewEncoder(w).Encode(indexFile{Cfg: ix.cfg, Chis: chis})
}

// ReadMemoryIndex reloads an index serialized by Encode. Every CHI is
// validated (see Add) before it enters the index; one that fails
// fails the whole read, because a corrupt count could make bounds
// inadmissible and answers silently wrong.
func ReadMemoryIndex(r io.Reader) (*MemoryIndex, error) {
	var f indexFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decode index: %w", err)
	}
	ix := NewMemoryIndex(f.Cfg)
	ids := make([]int64, 0, len(f.Chis))
	for id := range f.Chis {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := ix.Add(id, f.Chis[id]); err != nil {
			return nil, fmt.Errorf("core: index entry %d: %w", id, err)
		}
	}
	return ix, nil
}
