package core

import (
	"errors"
	"fmt"
	"sort"
)

// Config describes one CHI granularity: the cell size of the spatial
// grid and the pixel-value thresholds (histogram bin edges). A finer
// grid and more edges give tighter CP bounds at the cost of a larger
// index (paper §3.3, Figure 10).
type Config struct {
	// CellW, CellH are the grid cell dimensions in pixels.
	CellW, CellH int
	// Edges are ascending pixel-value thresholds in [0, 1). The first
	// edge must be 0; Normalize enforces this. For each cell and each
	// edge e the index stores the count of pixels with value >= e.
	Edges []float64
}

// DefaultEdges returns n uniform edges 0, 1/n, ..., (n-1)/n.
func DefaultEdges(n int) []float64 {
	e := make([]float64, n)
	for i := range e {
		e[i] = float64(i) / float64(n)
	}
	return e
}

// Normalize returns a validated copy of the config: edges sorted,
// deduplicated, clamped to [0, 1), with a leading 0 ensured.
func (c Config) Normalize() (Config, error) {
	if c.CellW <= 0 || c.CellH <= 0 {
		return Config{}, fmt.Errorf("chi: cell size %dx%d must be positive", c.CellW, c.CellH)
	}
	if len(c.Edges) == 0 {
		return Config{}, errors.New("chi: config needs at least one histogram edge")
	}
	edges := append([]float64(nil), c.Edges...)
	sort.Float64s(edges)
	out := edges[:0]
	for _, e := range edges {
		if e < 0 || e >= 1 {
			continue
		}
		if len(out) == 0 || e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	if len(out) == 0 || out[0] != 0 {
		out = append([]float64{0}, out...)
	}
	c.Edges = out
	return c, nil
}

// Key returns a string identifying the config, for index caching.
func (c Config) Key() string { return fmt.Sprintf("%dx%d/%v", c.CellW, c.CellH, c.Edges) }

// Bounds is an inclusive interval [Lo, Hi] bracketing an exact CP.
type Bounds struct {
	Lo, Hi int64
}

// Width returns the bound slack Hi - Lo; 0 means the bound is exact.
func (b Bounds) Width() int64 { return b.Hi - b.Lo }

// CHI is the Cumulative Histogram Index of one mask: for every grid
// cell and every edge threshold, the number of pixels in the cell with
// value >= the threshold. CPBounds combines these suffix-cumulative
// counts into admissible lower/upper bounds on any CP without touching
// the mask itself. A MemoryIndex stores only the counts of each CHI;
// the geometry is the index's own.
type CHI struct {
	W, H         int
	CellW, CellH int
	GW, GH       int
	Edges        []float64
	// Cum holds GW*GH*len(Edges) suffix-cumulative counts:
	// Cum[(cy*GW+cx)*len(Edges)+j] = #pixels in cell (cx, cy) with
	// value >= Edges[j].
	Cum []int32
}

// Build constructs the CHI of a mask under the given config.
func Build(m *Mask, cfg Config) (*CHI, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if m == nil || m.W <= 0 || m.H <= 0 {
		return nil, errors.New("chi: cannot index an empty mask")
	}
	k := len(cfg.Edges)
	gw := (m.W + cfg.CellW - 1) / cfg.CellW
	gh := (m.H + cfg.CellH - 1) / cfg.CellH
	c := &CHI{
		W: m.W, H: m.H,
		CellW: cfg.CellW, CellH: cfg.CellH,
		GW: gw, GH: gh,
		Edges: cfg.Edges,
		Cum:   make([]int32, gw*gh*k),
	}
	// First accumulate per-bin counts through a 256-entry byte→bin
	// LUT, then suffix-sum each cell.
	var lut [256]int32
	byteBins(&lut, cfg.Edges)
	if m.Bytes == nil {
		// Compressed path: whole repeat runs fold through the LUT in one
		// update per cell they touch — no pixel materialization.
		accumRLEHistogram(c.Cum, m.RLE, m.W, m.H, cfg.CellW, cfg.CellH, gw, k, &lut)
	} else {
		// Walking each row cell-run by cell-run hoists the per-pixel
		// cell division out of the inner loop.
		for y := 0; y < m.H; y++ {
			rowBase := (y / cfg.CellH) * gw
			row := m.Bytes[y*m.W : (y+1)*m.W]
			for cx := 0; cx < gw; cx++ {
				cum := c.Cum[(rowBase+cx)*k:][:k]
				for _, b := range row[cx*cfg.CellW : min((cx+1)*cfg.CellW, m.W)] {
					cum[lut[b]]++
				}
			}
		}
	}
	for cell := 0; cell < gw*gh; cell++ {
		base := cell * k
		for j := k - 2; j >= 0; j-- {
			c.Cum[base+j] += c.Cum[base+j+1]
		}
	}
	return c, nil
}

// byteBins fills lut with every byte's bin — the largest j with
// edges[j] <= its decoded value — in one merge pass over the
// ascending edges.
func byteBins(lut *[256]int32, edges []float64) {
	j := 0
	for b := range lut {
		for j+1 < len(edges) && edges[j+1] <= byteVal(b) {
			j++
		}
		lut[b] = int32(j)
	}
}

// Config returns the configuration the index was built with.
func (c *CHI) Config() Config {
	return Config{CellW: c.CellW, CellH: c.CellH, Edges: c.Edges}
}

// CPBounds returns admissible bounds on ExactCP(mask, roi, vr) using
// only the index: Lo <= CP <= Hi always holds. It is a one-off bound
// plan over the CHI's own counts, the same rule a MemoryIndex runs
// per target.
func (c *CHI) CPBounds(roi Rect, vr ValueRange) Bounds {
	g := grid{W: c.W, H: c.H, CellW: c.CellW, CellH: c.CellH, GW: c.GW, GH: c.GH, K: len(c.Edges)}
	p := compilePlan(g, byteThresholds(c.Edges), CPTerm{Range: vr, Spec: RegionSpec{Kind: RegionRect, Rect: roi}})
	return p.bounds(c.Cum, 0)
}
