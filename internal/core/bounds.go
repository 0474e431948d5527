package core

import (
	"slices"
	"sort"
)

// This file is the one CHI bounds rule. A bound plan is compiled once
// per term per stage call: the range endpoints resolved to edge
// indices through their bytes, and, for a fixed rectangle, the (cell
// offset, cell area, overlap) of every grid cell it touches.
// Evaluating a plan against one mask's counts is then a walk over
// those cells with no search and no geometry. Per-mask regions (object
// boxes) resolve their rect per target and walk its cells with the
// same hoisted edge indices.

// grid is the cell geometry every CHI of one index shares.
type grid struct {
	W, H, CellW, CellH, GW, GH, K int
}

// gridOf returns the geometry of masks of w x h pixels under cfg.
func gridOf(w, h int, cfg Config) grid {
	return grid{
		W: w, H: h, CellW: cfg.CellW, CellH: cfg.CellH,
		GW: (w + cfg.CellW - 1) / cfg.CellW, GH: (h + cfg.CellH - 1) / cfg.CellH,
		K: len(cfg.Edges),
	}
}

// slotLen is the number of counts one CHI holds.
func (g grid) slotLen() int { return g.GW * g.GH * g.K }

// cellRect returns cell (cx, cy) clipped to the mask.
func (g grid) cellRect(cx, cy int) Rect {
	return Rect{cx * g.CellW, cy * g.CellH, min((cx+1)*g.CellW, g.W), min((cy+1)*g.CellH, g.H)}
}

// planCell is one grid cell a region touches: the offset of its counts
// and the area the region covers of it.
type planCell struct {
	off, area, ovl int32
}

// cells appends to dst every grid cell roi touches, after clipping roi
// to the mask.
func (g grid) cells(roi Rect, dst []planCell) []planCell {
	roi = roi.Intersect(Rect{0, 0, g.W, g.H})
	if roi.Empty() {
		return dst
	}
	cx0, cx1 := roi.X0/g.CellW, (roi.X1-1)/g.CellW
	cy0, cy1 := roi.Y0/g.CellH, (roi.Y1-1)/g.CellH
	for cy := cy0; cy <= cy1; cy++ {
		y0, y1 := cy*g.CellH, min((cy+1)*g.CellH, g.H)
		ch, oh := y1-y0, min(y1, roi.Y1)-max(y0, roi.Y0)
		for cx := cx0; cx <= cx1; cx++ {
			x0, x1 := cx*g.CellW, min((cx+1)*g.CellW, g.W)
			ow := min(x1, roi.X1) - max(x0, roi.X0)
			dst = append(dst, planCell{int32((cy*g.GW + cx) * g.K), int32((x1 - x0) * ch), int32(ow * oh)})
		}
	}
	return dst
}

// byteThresholds returns, per edge, the smallest byte whose decoded
// value reaches it: Build counts byte b under edge j iff b >= T[j].
func byteThresholds(edges []float64) []int {
	t := make([]int, len(edges))
	for j, e := range edges {
		t[j] = sort.Search(256, func(b int) bool { return byteVal(b) >= e })
	}
	return t
}

// edgeSel is one value range resolved against an index's edges. For
// each endpoint, le is the nearest edge at or below it and ge the
// nearest at or above it; K stands for a count of 0 (no edge at or
// above lo, or a top-closed range's hi). An endpoint that lands on an
// edge has le == ge and is exact. empty marks a range that selects
// no byte.
type edgeSel struct {
	k                      int
	loLE, loGE, hiLE, hiGE int
	empty                  bool
}

// bracket resolves endpoint v against ascending values s: ge is the
// first index at or above v (len(s) when none) and le the last at or
// below it.
func bracket(s []int, v int) (le, ge int) {
	ge, found := slices.BinarySearch(s, v)
	if found {
		return ge, ge
	}
	return ge - 1, ge
}

// boundPlan is one term's compiled bounds rule.
type boundPlan struct {
	g   grid
	sel edgeSel
	// fixed plans carry their cells; the others resolve region per
	// target.
	fixed  bool
	cells  []planCell
	region RegionFn
}

// compilePlan compiles term t against geometry g and the byte
// thresholds thr of the index's edges. A RegionRect spec is
// authoritative for the term's region.
//
// A range selects exactly the bytes bLo <= b < bHi
// (ValueRange.ByteBounds), and the count at edge j counts exactly the
// bytes b >= thr[j], so an endpoint resolves by its byte against thr —
// and is exact whenever that byte is some thr[j], even when the float
// endpoint is no edge.
func compilePlan(g grid, thr []int, t CPTerm) boundPlan {
	p := boundPlan{g: g, region: t.Region}
	s := &p.sel
	s.k = g.K
	bLo, bHi := t.Range.ByteBounds()
	if bLo >= bHi {
		s.empty = true
		return p
	}
	s.loLE, s.loGE = bracket(thr, bLo)
	s.hiLE, s.hiGE = g.K, g.K
	if bHi < 256 {
		s.hiLE, s.hiGE = bracket(thr, bHi)
	}
	if t.Spec.Kind == RegionRect {
		p.fixed = true
		p.cells = g.cells(t.Spec.Rect, nil)
	}
	return p
}

// bounds evaluates the plan over one mask's counts; id resolves a
// per-mask region.
func (p *boundPlan) bounds(cum []int32, id int64) Bounds {
	s := &p.sel
	if s.empty {
		return Bounds{}
	}
	if p.fixed {
		return s.sum(cum, p.cells)
	}
	var buf [32]planCell
	return s.sum(cum, p.g.cells(p.region(id), buf[:0]))
}

// sum adds up the bounds of the given cells. A cell's count(v >= lo)
// lies between the counts of lo's two bracketing edges, and
// count(v >= hi) likewise — exactly 0 for a top-closed range, since no
// value exceeds 1.0 (hiLE == hiGE == K). A boundary cell holds at most
// ovl qualifying pixels inside the region, and at most area-ovl of its
// qualifying pixels outside it.
func (s *edgeSel) sum(cum []int32, cells []planCell) Bounds {
	var total Bounds
	for _, c := range cells {
		row := cum[c.off : int(c.off)+s.k]
		var geLoL, geHiU, geHiL int32
		if s.loGE < len(row) {
			geLoL = row[s.loGE]
		}
		if s.hiLE < len(row) {
			geHiU = row[s.hiLE]
		}
		if s.hiGE < len(row) {
			geHiL = row[s.hiGE]
		}
		hi := int64(row[s.loLE] - geHiL)
		lo := int64(max(geLoL-geHiU, 0))
		if c.ovl < c.area {
			hi = min(hi, int64(c.ovl))
			lo = max(lo-int64(c.area-c.ovl), 0)
		}
		total.Lo += lo
		total.Hi += hi
	}
	return total
}
