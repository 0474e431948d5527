package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"masksearch"
	"masksearch/internal/baseline"
	"masksearch/internal/core"
	"masksearch/internal/workload"
)

// Report is a rendered experiment result.
type Report struct {
	Title string
	sb    strings.Builder
}

// NewReport starts a report with an underlined title.
func NewReport(title string) *Report {
	r := &Report{Title: title}
	r.Printf("%s\n%s\n", title, strings.Repeat("=", len(title)))
	return r
}

// Printf appends formatted text to the report body.
func (r *Report) Printf(format string, args ...any) {
	fmt.Fprintf(&r.sb, format, args...)
}

func (r *Report) String() string { return r.sb.String() }

// Fig7 runs the five Table 1 queries on MaskSearch and the three
// baselines, reporting latency and the Table 2 masks-loaded counts.
func Fig7(ctx context.Context, d *DatasetEnv) (*Report, error) {
	idx, err := d.Index(d.SmallConfig())
	if err != nil {
		return nil, err
	}
	env := d.Env(idx)
	r := NewReport(fmt.Sprintf("Figure 7 / Table 2 — Table 1 queries on %s", d.Params.Name))
	r.Printf("%-4s %-11s %12s %12s %14s\n", "qry", "system", "time", "masks", "engine stats")
	engines := []*baseline.Engine{
		baseline.NewFullScan(d.Store),
		baseline.NewTupleScan(d.Store),
		baseline.NewArraySlice(d.Store),
	}
	for _, q := range []Q{Q1, Q2, Q3, Q4, Q5} {
		d.Store.ResetStats()
		start := time.Now()
		st, err := d.RunMaskSearch(ctx, env, q)
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		rs := d.Store.Stats()
		r.Printf("%-4v %-11s %12s %12d   %s\n", q, "MaskSearch", el.Round(time.Microsecond),
			rs.MasksLoaded+rs.RegionReads, st)
		for _, e := range engines {
			d.Store.ResetStats()
			start = time.Now()
			if _, err := d.RunBaseline(ctx, e, q); err != nil {
				return nil, err
			}
			el = time.Since(start)
			rs = d.Store.Stats()
			r.Printf("%-4v %-11s %12s %12d\n", q, e.Name(), el.Round(time.Microsecond),
				rs.MasksLoaded+rs.RegionReads)
		}
	}
	return r, nil
}

// Fig8 measures MaskSearch latency on n random queries of each §4.3
// type.
func Fig8(ctx context.Context, d *DatasetEnv, n int, seed int64) (*Report, error) {
	idx, err := d.Index(d.SmallConfig())
	if err != nil {
		return nil, err
	}
	env := d.Env(idx)
	ids := d.Cat.MaskIDs(nil)
	groups := d.Cat.GroupByImage(nil)
	w, h := d.Params.W, d.Params.H
	r := NewReport(fmt.Sprintf("Figure 8 — %d random queries per type on %s", n, d.Params.Name))
	r.Printf("%-12s %12s %12s %12s %10s\n", "type", "mean", "p50", "p95", "mean fml")

	measure := func(name string, run func(rng *rand.Rand) (core.Stats, error)) error {
		rng := rand.New(rand.NewSource(seed))
		times := make([]time.Duration, 0, n)
		var fml float64
		for i := 0; i < n; i++ {
			start := time.Now()
			st, err := run(rng)
			if err != nil {
				return err
			}
			times = append(times, time.Since(start))
			fml += st.FML()
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		var sum time.Duration
		for _, t := range times {
			sum += t
		}
		r.Printf("%-12s %12s %12s %12s %10.3f\n", name,
			(sum / time.Duration(n)).Round(time.Microsecond),
			times[n/2].Round(time.Microsecond),
			times[n*95/100].Round(time.Microsecond),
			fml/float64(n))
		return nil
	}

	if err := measure("Filter", func(rng *rand.Rand) (core.Stats, error) {
		q := workload.RandomFilter(rng, d.Cat, w, h, ids)
		_, st, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred())
		return st, err
	}); err != nil {
		return nil, err
	}
	if err := measure("TopK", func(rng *rand.Rand) (core.Stats, error) {
		q := workload.RandomTopK(rng, w, h, ids)
		_, st, err := core.TopK(ctx, env, q.Targets, q.Terms(), 0, q.K, q.Order)
		return st, err
	}); err != nil {
		return nil, err
	}
	if err := measure("Aggregation", func(rng *rand.Rand) (core.Stats, error) {
		q := workload.RandomAgg(rng, w, h, groups)
		_, st, err := core.AggTopK(ctx, env, q.Groups, q.Terms(), 0, core.Mean, q.K, q.Order)
		return st, err
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// Fig9 runs n random Filter queries and correlates per-query time with
// FML; the paper reports Pearson r ≈ 1.
func Fig9(ctx context.Context, d *DatasetEnv, n int, seed int64) (*Report, error) {
	idx, err := d.Index(d.SmallConfig())
	if err != nil {
		return nil, err
	}
	env := d.Env(idx)
	ids := d.Cat.MaskIDs(nil)
	rng := rand.New(rand.NewSource(seed))
	secs := make([]float64, 0, n)
	fmls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		q := workload.RandomFilter(rng, d.Cat, d.Params.W, d.Params.H, ids)
		start := time.Now()
		_, st, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred())
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		fmls = append(fmls, st.FML())
	}
	r := NewReport(fmt.Sprintf("Figure 9 — time vs FML over %d Filter queries on %s", n, d.Params.Name))
	r.Printf("pearson r(time, fml) = %.4f\n", pearson(secs, fmls))
	r.Printf("mean fml = %.3f   mean time = %.3fms\n", mean(fmls), mean(secs)*1e3)
	return r, nil
}

// Fig10 measures CHI bound computation at both index granularities:
// cost per bound and mean bound tightness.
func Fig10(d *DatasetEnv, n int, seed int64) (*Report, error) {
	ids := d.Cat.MaskIDs(nil)
	roiOf := d.Cat.ObjectROI()
	r := NewReport(fmt.Sprintf("Figure 10 — CHI bound computation on %s (%d probes)", d.Params.Name, n))
	r.Printf("%-8s %14s %12s %14s %12s\n", "index", "bytes", "frac", "ns/bound", "tightness")
	for _, gran := range []struct {
		name string
		cfg  core.Config
	}{{"small", d.SmallConfig()}, {"large", d.LargeConfig()}} {
		ix, err := d.Index(gran.cfg)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		vr := core.ValueRange{Lo: 0.6, Hi: 1.0}
		var slack, area float64
		start := time.Now()
		for i := 0; i < n; i++ {
			id := ids[rng.Intn(len(ids))]
			chi, err := ix.ChiFor(id)
			if err != nil || chi == nil {
				return nil, fmt.Errorf("bench: mask %d missing from eager index", id)
			}
			roi := roiOf(id)
			b := chi.CPBounds(roi, vr)
			slack += float64(b.Width())
			area += float64(roi.Area())
		}
		el := time.Since(start)
		r.Printf("%-8s %14d %11.1f%% %14d %12.4f\n", gran.name,
			ix.SizeBytes(), 100*float64(ix.SizeBytes())/float64(d.Store.DataBytes()),
			el.Nanoseconds()/int64(n), slack/area)
	}
	return r, nil
}

// Fig11 runs one multi-query workload (p_seen = 0.5) under the
// paper's execution modes plus the batched engine, reporting the ratio
// subfigures. Every MaskSearch mode must return the same ids per
// query; the batch mode (ExecBatch over a shared unbounded mask cache)
// is additionally cross-checked against MS-prebuilt row by row.
func Fig11(ctx context.Context, d *DatasetEnv, n int, seed int64) (*Report, error) {
	queries := workload.MultiQuery(rand.New(rand.NewSource(seed)), d.Cat,
		d.Params.W, d.Params.H, n, 0.5)
	r := NewReport(fmt.Sprintf("Figure 11 — %d-query workload on %s (p_seen=0.5)", n, d.Params.Name))
	r.Printf("%-16s %12s %12s %12s\n", "mode", "total", "masks", "cache hits")

	idx, err := d.Index(d.SmallConfig())
	if err != nil {
		return nil, err
	}
	inc := core.NewMemoryIndex(d.SmallConfig())
	fullScan := baseline.NewFullScan(d.Store)
	defer d.Store.SetCacheBytes(0)

	var ref [][]int64
	times := map[string]time.Duration{}
	modes := []struct {
		name       string
		cacheBytes int64
		run        func(env *core.Env) ([][]int64, error)
		env        *core.Env
	}{
		// MS: index prebuilt before the workload arrives.
		{"MS-prebuilt", 0, nil, d.Env(idx)},
		// MS-II: cold start, index built incrementally from verified
		// masks.
		{"MS-incremental", 0, nil,
			&core.Env{Loader: d.Store, Index: inc, OnVerify: inc.Observe, Exec: d.Exec}},
		// MS-batch: the whole workload scheduled as one ExecBatch over
		// a shared mask cache, each distinct mask loaded at most once.
		{"MS-batch", -1, func(env *core.Env) ([][]int64, error) {
			return execBatchIDs(ctx, env, batchFilterPlan(queries, d.Cat))
		}, d.Env(idx)},
		// NumPy: the FullScan baseline.
		{"NumPy", 0, func(*core.Env) ([][]int64, error) {
			outs := make([][]int64, len(queries))
			for i, q := range queries {
				out, _, err := fullScan.Filter(ctx, q.Targets, q.Terms(d.Cat), q.Pred())
				if err != nil {
					return nil, err
				}
				outs[i] = out
			}
			return outs, nil
		}, nil},
	}
	for _, mode := range modes {
		run := mode.run
		if run == nil {
			run = func(env *core.Env) ([][]int64, error) {
				outs := make([][]int64, len(queries))
				for i, q := range queries {
					out, _, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred())
					if err != nil {
						return nil, err
					}
					outs[i] = out
				}
				return outs, nil
			}
		}
		d.Store.SetCacheBytes(mode.cacheBytes)
		d.Store.ResetStats()
		start := time.Now()
		outs, err := run(mode.env)
		if err != nil {
			return nil, fmt.Errorf("bench: fig11 %s: %w", mode.name, err)
		}
		times[mode.name] = time.Since(start)
		rs := d.Store.Stats()
		if ref == nil {
			ref = outs
		} else {
			for i := range outs {
				if !equalIDs(outs[i], ref[i]) {
					return nil, fmt.Errorf("bench: fig11 %s: query %d disagrees with MS-prebuilt", mode.name, i)
				}
			}
		}
		r.Printf("%-16s %12s %12d %12d\n", mode.name,
			times[mode.name].Round(time.Microsecond), rs.MasksLoaded, rs.CacheHits)
	}

	r.Printf("speedup NumPy/MS-prebuilt    = %.2fx\n", ratio(times["NumPy"], times["MS-prebuilt"]))
	r.Printf("speedup NumPy/MS-incremental = %.2fx\n", ratio(times["NumPy"], times["MS-incremental"]))
	r.Printf("speedup NumPy/MS-batch       = %.2fx\n", ratio(times["NumPy"], times["MS-batch"]))
	return r, nil
}

// Size reports dataset and index footprints.
func Size(d *DatasetEnv) (*Report, error) {
	r := NewReport(fmt.Sprintf("Size — %s", d.Params.Name))
	n := d.Cat.Len()
	r.Printf("masks: %d of %dx%d (%d bytes on disk)\n", n, d.Params.W, d.Params.H, d.Store.DataBytes())
	for _, gran := range []struct {
		name string
		cfg  core.Config
	}{{"small", d.SmallConfig()}, {"large", d.LargeConfig()}} {
		start := time.Now()
		ix, err := d.Index(gran.cfg)
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(start)
		r.Printf("index %-6s: %d bytes (%.1f%% of data), built in %s (%s/mask)\n",
			gran.name, ix.SizeBytes(), 100*float64(ix.SizeBytes())/float64(d.Store.DataBytes()),
			buildTime.Round(time.Millisecond), (buildTime / time.Duration(max(1, n))).Round(time.Microsecond))
	}
	return r, nil
}

// Ablation compares the same Filter query set with the index ablated:
// prebuilt CHI, incremental-from-cold, and no index at all.
func Ablation(d *DatasetEnv, n int, seed int64) (*Report, error) {
	ctx := context.Background()
	ids := d.Cat.MaskIDs(nil)
	rng := rand.New(rand.NewSource(seed))
	queries := make([]workload.FilterQuery, n)
	for i := range queries {
		queries[i] = workload.RandomFilter(rng, d.Cat, d.Params.W, d.Params.H, ids)
	}
	r := NewReport(fmt.Sprintf("Ablation — %d Filter queries on %s", n, d.Params.Name))
	r.Printf("%-14s %12s %12s %12s\n", "mode", "total", "loaded", "mean fml")

	run := func(name string, env *core.Env) error {
		var loaded int
		var fml float64
		start := time.Now()
		for _, q := range queries {
			_, st, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred())
			if err != nil {
				return err
			}
			loaded += st.Loaded
			fml += st.FML()
		}
		r.Printf("%-14s %12s %12d %12.3f\n", name,
			time.Since(start).Round(time.Microsecond), loaded, fml/float64(n))
		return nil
	}

	idx, err := d.Index(d.SmallConfig())
	if err != nil {
		return nil, err
	}
	if err := run("prebuilt", d.Env(idx)); err != nil {
		return nil, err
	}
	inc := core.NewMemoryIndex(d.SmallConfig())
	if err := run("incremental", &core.Env{Loader: d.Store, Index: inc, OnVerify: inc.Observe, Exec: d.Exec}); err != nil {
		return nil, err
	}
	if err := run("no-index", d.Env(nil)); err != nil {
		return nil, err
	}
	return r, nil
}

// Edges is a correctness battery: random and adversarial edge-case
// queries are answered by the indexed engine and cross-checked against
// the FullScan baseline, which shares no code with the filter stage.
func Edges(d *DatasetEnv, n int, seed int64) (*Report, error) {
	ctx := context.Background()
	idx, err := d.Index(d.SmallConfig())
	if err != nil {
		return nil, err
	}
	env := d.Env(idx)
	full := baseline.NewFullScan(d.Store)
	ids := d.Cat.MaskIDs(nil)
	w, h := d.Params.W, d.Params.H

	queries := make([]workload.FilterQuery, 0, n+5)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		queries = append(queries, workload.RandomFilter(rng, d.Cat, w, h, ids))
	}
	// Deterministic edge shapes: top-closed saturation, 1px ROI,
	// full-image ROI, empty range, threshold 0.
	queries = append(queries,
		workload.FilterQuery{Targets: ids, ROI: core.Rect{X1: w, Y1: h}, VR: core.ValueRange{Lo: 1.0, Hi: 1.0}, Thresh: 0},
		workload.FilterQuery{Targets: ids, ROI: core.Rect{X0: w / 2, Y0: h / 2, X1: w/2 + 1, Y1: h/2 + 1}, VR: core.ValueRange{Lo: 0.5, Hi: 1.0}, Thresh: 0},
		workload.FilterQuery{Targets: ids, ROI: core.Rect{X1: w, Y1: h}, VR: core.ValueRange{Lo: 0, Hi: 1.0}, Thresh: int64(w*h) - 1},
		workload.FilterQuery{Targets: ids, ROI: core.Rect{X1: w, Y1: h}, VR: core.ValueRange{Lo: 0.7, Hi: 0.7}, Thresh: 0},
		workload.FilterQuery{Targets: ids, UseObject: true, VR: core.ValueRange{Lo: 0.9, Hi: 0.95}, Thresh: 1},
	)
	for qi, q := range queries {
		got, _, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred())
		if err != nil {
			return nil, err
		}
		want, _, err := full.Filter(ctx, q.Targets, q.Terms(d.Cat), q.Pred())
		if err != nil {
			return nil, err
		}
		if !equalIDs(got, want) {
			return nil, fmt.Errorf("bench: edges query %d disagrees with FullScan (got %d ids, want %d)",
				qi, len(got), len(want))
		}
	}
	r := NewReport(fmt.Sprintf("Edges — engine vs FullScan on %s", d.Params.Name))
	r.Printf("%d/%d queries agree with the unindexed baseline\n", len(queries), len(queries))
	return r, nil
}

// Sweep varies Filter selectivity and reports how FML tracks it. The
// sweep is driven through the serving facade: every query shape is
// prepared once and each selectivity point only binds a fresh
// threshold, so the per-point cost is bind+execute, not
// parse+plan+execute. (The same seed is replayed per point, so the
// shapes repeat and the DB's plan cache serves every re-Prepare.)
func Sweep(d *DatasetEnv, n int, seed int64) (*Report, error) {
	ctx := context.Background()
	db, err := masksearch.OpenWith(d.Dir, masksearch.Options{
		// The default index granularity matches SmallConfig, so the
		// FML column is comparable with the other experiments.
		// Persisting the eager build means only the first run over a
		// dataset directory pays it; later runs reload chi.gob.
		EagerIndex: true, PersistIndexOnClose: true, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	ids := d.Cat.MaskIDs(nil)
	w, h := d.Params.W, d.Params.H
	r := NewReport(fmt.Sprintf("Sweep — threshold sweep on %s (%d prepared queries per point)", d.Params.Name, n))
	r.Printf("%-10s %12s %12s %12s\n", "thresh", "selectivity", "mean fml", "mean time")
	for _, frac := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		rng := rand.New(rand.NewSource(seed))
		var sel, fml float64
		var total time.Duration
		for i := 0; i < n; i++ {
			q := workload.RandomFilter(rng, d.Cat, w, h, ids)
			area := float64(q.ROI.Area())
			if q.UseObject {
				area = float64(w * h / 8)
			}
			q.Thresh = int64(frac * area)
			sql, args := q.SQL()
			stmt, err := db.Prepare(sql)
			if err != nil {
				return nil, err
			}
			args[2] = q.Thresh
			start := time.Now()
			res, err := stmt.Query(ctx, args...)
			if err != nil {
				return nil, err
			}
			total += time.Since(start)
			sel += float64(len(res.IDs)) / float64(len(ids))
			fml += res.Stats.FML()
		}
		r.Printf("%9.0f%% %11.1f%% %12.3f %12s\n", frac*100, 100*sel/float64(n),
			fml/float64(n), (total / time.Duration(n)).Round(time.Microsecond))
	}
	pcs := db.PlanCacheStats()
	r.Printf("plan cache: %d entries, %d hits, %d misses\n", pcs.Entries, pcs.Hits, pcs.Misses)
	return r, nil
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pearson(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
