package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"masksearch"
	"masksearch/internal/core"
	"masksearch/internal/store"
	"masksearch/internal/workload"
)

// kind is a statement's plan shape.
type kind int

const (
	kFilter kind = iota // SELECT mask_id ... WHERE CP(...) > t
	kTopK               // ... ORDER BY CP(...) LIMIT k
	kAgg                // SELECT image_id, MEAN(CP(...)) ... GROUP BY image_id
)

// meta is one metadata predicate, col = val or, with ne, col != val;
// mispredicted takes 1 or 0 and only =.
type meta struct {
	col string
	val int
	ne  bool
}

func (m meta) keep(e store.Entry) bool {
	var v int
	switch m.col {
	case "model_id":
		v = e.ModelID
	case "label":
		v = e.Label
	case "mispredicted":
		return e.Mispredicted() == (m.val == 1)
	default:
		panic("perfbench: unknown metadata column " + m.col)
	}
	return (v == m.val) != m.ne
}

// stmt is one generated query. The benchmark keeps its structure so
// it can both render the SQL the program receives and replay the same
// query through the core entry points.
type stmt struct {
	kind   kind
	obj    bool // region is each mask's object box, else roi
	roi    core.Rect
	vr     core.ValueRange
	thresh int64 // kFilter: CP(...) > thresh
	metas  []meta
	k      int
	order  core.Order
	prep   bool // sent as a `?` template plus arguments
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// sql renders the statement, as a template plus arguments when prep
// is set and as literal text otherwise. Arguments follow source order.
func (s stmt) sql() (string, []any) {
	var args []any
	lit := func(v any, text string) string {
		if s.prep {
			args = append(args, v)
			return "?"
		}
		return text
	}
	region := "object"
	if !s.obj {
		region = fmt.Sprintf("rect(%d,%d,%d,%d)", s.roi.X0, s.roi.Y0, s.roi.X1, s.roi.Y1)
	}
	cp := func() string {
		return fmt.Sprintf("CP(mask, %s, %s, %s)", region,
			lit(s.vr.Lo, num(s.vr.Lo)), lit(s.vr.Hi, num(s.vr.Hi)))
	}
	var b strings.Builder
	var conds []string
	metas := func() {
		for _, m := range s.metas {
			if m.col == "mispredicted" {
				conds = append(conds, fmt.Sprintf("mispredicted = %t", m.val == 1))
			} else {
				op := " = "
				if m.ne {
					op = " != "
				}
				conds = append(conds, m.col+op+lit(m.val, strconv.Itoa(m.val)))
			}
		}
	}
	where := func() {
		if len(conds) > 0 {
			b.WriteString(" WHERE " + strings.Join(conds, " AND "))
		}
	}
	ord := " DESC"
	if s.order == core.Asc {
		ord = " ASC"
	}
	switch s.kind {
	case kFilter:
		c := cp()
		conds = append(conds, c+" > "+lit(s.thresh, strconv.FormatInt(s.thresh, 10)))
		metas()
		b.WriteString("SELECT mask_id FROM masks")
		where()
	case kTopK:
		metas()
		b.WriteString("SELECT mask_id FROM masks")
		where()
		b.WriteString(" ORDER BY " + cp() + ord + " LIMIT " + lit(s.k, strconv.Itoa(s.k)))
	case kAgg:
		b.WriteString("SELECT image_id, MEAN(" + cp() + ") AS a FROM masks")
		metas()
		where()
		b.WriteString(" GROUP BY image_id ORDER BY a" + ord + " LIMIT " + lit(s.k, strconv.Itoa(s.k)))
	}
	return b.String(), args
}

// Generators. Every region, value range, threshold, limit and order is
// drawn by internal/workload's generators of the paper's §4.3 queries,
// except that explore's filter thresholds follow msbench's serve mix;
// the benchmark adds only metadata predicates and the SQL rendering.
// Drawn floats render in shortest round-trip form, so the SQL text
// parses back to the exact value the replay uses.

// sqlRange clamps a drawn value range to the dialect's [0, 1] domain,
// as workload's own SQL rendering does; any Hi >= 1 selects the same
// pixels.
func sqlRange(vr core.ValueRange) core.ValueRange {
	vr.Hi = min(vr.Hi, 1)
	return vr
}

func fromFilter(q workload.FilterQuery, metas []meta) stmt {
	return stmt{kind: kFilter, obj: q.UseObject, roi: q.ROI, vr: sqlRange(q.VR), thresh: q.Thresh, metas: metas}
}

func fromTopK(q workload.TopKQuery) stmt {
	return stmt{kind: kTopK, roi: q.ROI, vr: sqlRange(q.VR), k: q.K, order: q.Order}
}

func fromAgg(q workload.AggQuery) stmt {
	return stmt{kind: kAgg, roi: q.ROI, vr: sqlRange(q.VR), k: q.K, order: q.Order}
}

// randMeta draws one metadata predicate: one model, the wrongly
// predicted masks, or one label.
func randMeta(rng *rand.Rand) meta {
	switch rng.Intn(3) {
	case 0:
		return meta{col: "model_id", val: 1 + rng.Intn(2)}
	case 1:
		return meta{col: "mispredicted", val: 1}
	}
	return meta{col: "label", val: rng.Intn(10)}
}

// serveFracs are the selectivities at which msbench's serve experiment
// runs each prepared filter shape: thresholds at these shares of the
// region's area.
var serveFracs = [3]float64{0.05, 0.15, 0.4}

// exploreList draws one client's cyclic statement list: a Filter, a
// Top-K and an aggregation in turn, an equal share each, as the §4.3
// evaluation (and msbench's engine experiment) runs n queries of each
// family. Filters follow msbench's serve mix: each drawn shape is a
// prepared `?` template, sent through the client's session at the three
// serveFracs selectivities; every other shape ANDs one metadata
// predicate. Top-K and aggregations are literal ad-hoc text.
func exploreList(seed int64, c catalog, w, h, n int) []stmt {
	rng := rand.New(rand.NewSource(seed))
	cat := store.NewCatalog(c.rows)
	ids, groups := cat.MaskIDs(nil), cat.GroupByImage(nil)
	var shape stmt
	out := make([]stmt, n)
	for i := range out {
		switch f := i / 3; i % 3 {
		case 0:
			if f%3 == 0 {
				var metas []meta
				if f/3%2 == 1 {
					metas = []meta{randMeta(rng)}
				}
				shape = fromFilter(workload.RandomFilter(rng, cat, w, h, c.targets(stmt{metas: metas})), metas)
				shape.prep = true
			}
			s := shape
			area := float64(s.roi.Area())
			if s.obj {
				area = float64(w * h / 8) // a typical object box, as workload scales it
			}
			s.thresh = int64(serveFracs[f%3] * area)
			out[i] = s
		case 1:
			out[i] = fromTopK(workload.RandomTopK(rng, w, h, ids))
		default:
			out[i] = fromAgg(workload.RandomAgg(rng, w, h, groups))
		}
	}
	return out
}

// catalog is a snapshot of the catalog rows, whose mask ids are dense
// from rows[0].MaskID, used to resolve targets, object regions and
// groups for the replay.
type catalog struct {
	rows  []store.Entry
	first int64
}

func newCatalog(entries []store.Entry) (catalog, error) {
	c := catalog{rows: entries}
	if len(entries) > 0 {
		c.first = entries[0].MaskID
	}
	for i, e := range entries {
		if e.MaskID != c.first+int64(i) {
			return c, fmt.Errorf("catalog row %d has mask id %d; ids must be dense", i, e.MaskID)
		}
	}
	return c, nil
}

func (c catalog) row(id int64) store.Entry { return c.rows[id-c.first] }

// ids lists every mask id of the snapshot.
func (c catalog) ids() []int64 {
	out := make([]int64, len(c.rows))
	for i := range out {
		out[i] = c.first + int64(i)
	}
	return out
}

func (c catalog) keep(s stmt, e store.Entry) bool {
	for _, m := range s.metas {
		if !m.keep(e) {
			return false
		}
	}
	return true
}

// targets lists the ids the statement's metadata predicates select.
func (c catalog) targets(s stmt) []int64 {
	var ids []int64
	for _, e := range c.rows {
		if c.keep(s, e) {
			ids = append(ids, e.MaskID)
		}
	}
	return ids
}

func (c catalog) terms(s stmt) []core.CPTerm {
	region := core.FixedRegion(s.roi)
	if s.obj {
		region = func(id int64) core.Rect { return c.row(id).Object }
	}
	return []core.CPTerm{{Name: "cp", Region: region, Range: s.vr}}
}

// groups groups targets by image id, ordered by key like the catalog.
func (c catalog) groups(targets []int64) []core.Group {
	m := map[int64][]int64{}
	for _, id := range targets {
		img := c.row(id).ImageID
		m[img] = append(m[img], id)
	}
	out := make([]core.Group, 0, len(m))
	for k, ids := range m {
		out = append(out, core.Group{Key: k, IDs: ids})
	}
	slices.SortFunc(out, func(a, b core.Group) int { return int(a.Key - b.Key) })
	return out
}

// answer is one query's result in comparable form.
type answer struct {
	ids    []int64
	ranked []core.Scored
}

func fromResult(r *masksearch.Result) answer { return answer{ids: r.IDs, ranked: r.Ranked} }

func (a answer) equal(b answer) bool {
	return slices.Equal(a.ids, b.ids) && slices.Equal(a.ranked, b.ranked)
}

// sum fingerprints the answer, so a run can keep thousands of answers
// for checking after it ends without holding them.
func (a answer) sum() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(a.ids)))
	for _, id := range a.ids {
		put(uint64(id))
	}
	put(uint64(len(a.ranked)))
	for _, r := range a.ranked {
		put(uint64(r.ID))
		put(math.Float64bits(r.Score))
	}
	return h.Sum64()
}

// replay runs the statement through the core entry point the DB's plan
// uses, over the given environment.
func replay(ctx context.Context, env *core.Env, c catalog, s stmt) (answer, core.Stats, error) {
	targets := c.targets(s)
	terms := c.terms(s)
	switch s.kind {
	case kFilter:
		ids, st, err := core.Filter(ctx, env, targets, terms, core.Cmp{T: 0, Op: core.OpGt, C: s.thresh})
		return answer{ids: ids}, st, err
	case kTopK:
		r, st, err := core.TopK(ctx, env, targets, terms, 0, s.k, s.order)
		return answer{ranked: r}, st, err
	default:
		r, st, err := core.AggTopK(ctx, env, c.groups(targets), terms, 0, core.Mean, s.k, s.order)
		return answer{ranked: r}, st, err
	}
}

// references answers every statement through direct DB.Query on ref.
func references(ctx context.Context, ref *masksearch.DB, stmts []stmt) ([]answer, error) {
	out := make([]answer, len(stmts))
	for i, s := range stmts {
		sql, args := s.sql()
		res, err := ref.Query(ctx, sql, args...)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", sql, err)
		}
		out[i] = fromResult(res)
	}
	return out, nil
}
