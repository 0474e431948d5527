// Benchmarks that regenerate the paper's tables and figures under `go
// test -bench`. One benchmark (family) exists per evaluation artifact:
//
//	BenchmarkFigure7_*   — Q1–Q5 across MaskSearch and the 3 baselines
//	                       (Table 2's masks-loaded counts are reported
//	                       as the masks/op metric)
//	BenchmarkFigure8_*   — random queries of each §4.3 type
//	BenchmarkFigure9_*   — Filter queries reporting FML (time~FML)
//	BenchmarkFigure10_*  — CHI bound computation at both granularities
//	BenchmarkFigure11_*  — a multi-query workload under MS / MS-II / NumPy
//	BenchmarkBounds_*    — the bounds stage alone, in ns per target
//
// The benchmarks use reduced dataset sizes (bench.Quick) so the whole
// suite completes in minutes; cmd/msbench runs the full-size versions.
package masksearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"masksearch"
	"masksearch/internal/baseline"
	"masksearch/internal/bench"
	"masksearch/internal/core"
	"masksearch/internal/workload"
)

var (
	benchOnce sync.Once
	benchCfg  bench.Config
	benchEnvs map[string]*bench.DatasetEnv
	benchErr  error
)

// setupBench materializes the benchmark datasets once per process.
func setupBench(b *testing.B) map[string]*bench.DatasetEnv {
	b.Helper()
	benchOnce.Do(func() {
		dir := filepath.Join(os.TempDir(), "masksearch-bench")
		benchCfg = bench.Quick(dir)
		benchEnvs = map[string]*bench.DatasetEnv{}
		w, err := benchCfg.SetupWilds()
		if err != nil {
			benchErr = err
			return
		}
		benchEnvs["wilds"] = w
		im, err := benchCfg.SetupImagenet()
		if err != nil {
			benchErr = err
			return
		}
		benchEnvs["imagenet"] = im
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnvs
}

// BenchmarkFigure7 measures each Table 1 query on each system. The
// custom metric masks/op is the Table 2 count.
func BenchmarkFigure7(b *testing.B) {
	envs := setupBench(b)
	ctx := context.Background()
	for _, name := range []string{"wilds", "imagenet"} {
		d := envs[name]
		idx, err := d.Index(d.SmallConfig())
		if err != nil {
			b.Fatal(err)
		}
		env := d.Env(idx)
		for _, q := range []bench.Q{bench.Q1, bench.Q2, bench.Q3, bench.Q4, bench.Q5} {
			b.Run(fmt.Sprintf("%s/%v/MaskSearch", name, q), func(b *testing.B) {
				d.Store.ResetStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.RunMaskSearch(ctx, env, q); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := d.Store.Stats()
				b.ReportMetric(float64(st.MasksLoaded+st.RegionReads)/float64(b.N), "masks/op")
			})
			for _, mk := range []func() *baseline.Engine{
				func() *baseline.Engine { return baseline.NewFullScan(d.Store) },
				func() *baseline.Engine { return baseline.NewTupleScan(d.Store) },
				func() *baseline.Engine { return baseline.NewArraySlice(d.Store) },
			} {
				e := mk()
				b.Run(fmt.Sprintf("%s/%v/%s", name, q, e.Name()), func(b *testing.B) {
					d.Store.ResetStats()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := d.RunBaseline(ctx, e, q); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					st := d.Store.Stats()
					b.ReportMetric(float64(st.MasksLoaded+st.RegionReads)/float64(b.N), "masks/op")
				})
			}
		}
	}
}

// BenchmarkFigure8 measures MaskSearch on the three §4.3 random query
// types (a fresh random query per iteration).
func BenchmarkFigure8(b *testing.B) {
	envs := setupBench(b)
	ctx := context.Background()
	for _, name := range []string{"wilds", "imagenet"} {
		d := envs[name]
		idx, err := d.Index(d.SmallConfig())
		if err != nil {
			b.Fatal(err)
		}
		env := d.Env(idx)
		ids := d.Cat.MaskIDs(nil)
		groups := d.Cat.GroupByImage(nil)

		b.Run(name+"/Filter", func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchCfg.Seed))
			for i := 0; i < b.N; i++ {
				q := workload.RandomFilter(rng, d.Cat, d.Params.W, d.Params.H, ids)
				if _, _, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/TopK", func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchCfg.Seed))
			for i := 0; i < b.N; i++ {
				q := workload.RandomTopK(rng, d.Params.W, d.Params.H, ids)
				if _, _, err := core.TopK(ctx, env, q.Targets, q.Terms(), core.Term(0), q.K, q.Order); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/Aggregation", func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchCfg.Seed))
			for i := 0; i < b.N; i++ {
				q := workload.RandomAgg(rng, d.Params.W, d.Params.H, groups)
				if _, _, err := core.AggTopK(ctx, env, q.Groups, q.Terms(), core.Term(0), core.Mean, q.K, q.Order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure9 measures Filter queries and reports the mean FML as
// a custom metric; time per op should track fml/op (Pearson r ≈ 1).
func BenchmarkFigure9(b *testing.B) {
	envs := setupBench(b)
	ctx := context.Background()
	for _, name := range []string{"wilds", "imagenet"} {
		d := envs[name]
		idx, err := d.Index(d.SmallConfig())
		if err != nil {
			b.Fatal(err)
		}
		env := d.Env(idx)
		ids := d.Cat.MaskIDs(nil)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchCfg.Seed))
			var fmlSum float64
			for i := 0; i < b.N; i++ {
				q := workload.RandomFilter(rng, d.Cat, d.Params.W, d.Params.H, ids)
				_, stats, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred())
				if err != nil {
					b.Fatal(err)
				}
				fmlSum += stats.FML()
			}
			b.ReportMetric(fmlSum/float64(b.N), "fml/op")
		})
	}
}

// BenchmarkFigure10 measures the cost of computing CHI bounds (the
// filter stage's inner loop) at both index granularities.
func BenchmarkFigure10(b *testing.B) {
	envs := setupBench(b)
	for _, name := range []string{"wilds", "imagenet"} {
		d := envs[name]
		for _, gran := range []struct {
			desc string
			cfg  core.Config
		}{{"small", d.SmallConfig()}, {"large", d.LargeConfig()}} {
			idx, err := d.Index(gran.cfg)
			if err != nil {
				b.Fatal(err)
			}
			ids := d.Cat.MaskIDs(nil)
			roiOf := d.Cat.ObjectROI()
			vr := masksearch.ValueRange{Lo: 0.6, Hi: 1.0}
			b.Run(fmt.Sprintf("%s/%s", name, gran.desc), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					id := ids[i%len(ids)]
					chi, err := idx.ChiFor(id)
					if err != nil || chi == nil {
						b.Fatal("missing CHI")
					}
					_ = chi.CPBounds(roiOf(id), vr)
				}
			})
		}
	}
}

// BenchmarkBounds measures the bounds stage alone: BoundCands over the
// full wilds index, for a fixed rectangle (cells hoisted into the
// plan) and for the per-mask object box (cells walked per target).
// ns/target is the per-target cost.
func BenchmarkBounds(b *testing.B) {
	envs := setupBench(b)
	ctx := context.Background()
	d := envs["wilds"]
	idx, err := d.Index(d.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	env := &core.Env{Loader: d.Store, Index: idx}
	ids := d.Cat.MaskIDs(nil)
	w, h := d.Params.W, d.Params.H
	rect := core.Rect{X0: w / 8, Y0: h / 8, X1: w - w/8, Y1: h - h/8}
	vr := core.ValueRange{Lo: 0.6, Hi: 1.0}
	for _, r := range []struct {
		name string
		term core.CPTerm
	}{
		{"rect", core.CPTerm{Region: core.FixedRegion(rect), Range: vr, Spec: core.RegionSpec{Kind: core.RegionRect, Rect: rect}}},
		{"object", core.CPTerm{Region: d.Cat.ObjectROI(), Range: vr, Spec: core.RegionSpec{Kind: core.RegionObject}}},
	} {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.BoundCands(ctx, env, ids, r.term); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/target")
		})
	}
}

// BenchmarkFigure11 measures one full multi-query workload (Workload 2,
// p_seen = 0.5) per iteration under each execution mode.
func BenchmarkFigure11(b *testing.B) {
	envs := setupBench(b)
	ctx := context.Background()
	const nQueries = 15
	d := envs["wilds"]
	queries := workload.MultiQuery(rand.New(rand.NewSource(benchCfg.Seed)), d.Cat,
		d.Params.W, d.Params.H, nQueries, 0.5)

	b.Run("MS-prebuilt", func(b *testing.B) {
		idx, err := d.Index(d.SmallConfig())
		if err != nil {
			b.Fatal(err)
		}
		env := d.Env(idx)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, _, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("MS-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx := core.NewMemoryIndex(d.SmallConfig())
			env := &core.Env{Loader: d.Store, Index: idx, OnVerify: idx.Observe}
			for _, q := range queries {
				if _, _, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("NumPy", func(b *testing.B) {
		e := baseline.NewFullScan(d.Store)
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, _, err := e.Filter(ctx, q.Targets, q.Terms(d.Cat), q.Pred()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCHIBuild measures index construction cost per mask, the
// quantity amortized by incremental indexing (§3.6), on a store-loaded
// byte-backed mask.
func BenchmarkCHIBuild(b *testing.B) {
	envs := setupBench(b)
	for _, name := range []string{"wilds", "imagenet"} {
		d := envs[name]
		m, err := d.Store.LoadMask(1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/byte", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(m, d.SmallConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactCP measures the verification-stage kernel on a
// store-loaded byte-backed mask.
func BenchmarkExactCP(b *testing.B) {
	envs := setupBench(b)
	d := envs["wilds"]
	m, err := d.Store.LoadMask(1)
	if err != nil {
		b.Fatal(err)
	}
	roi := masksearch.Rect{X0: 10, Y0: 10, X1: d.Params.W - 10, Y1: d.Params.H - 10}
	for _, r := range []struct {
		name string
		vr   masksearch.ValueRange
	}{{"top", masksearch.ValueRange{Lo: 0.6, Hi: 1.0}}, {"band", masksearch.ValueRange{Lo: 0.3, Hi: 0.6}}} {
		b.Run(r.name+"/byte", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = masksearch.CP(m, roi, r.vr)
			}
		})
	}
}

// BenchmarkEngine compares the sequential engine against the
// worker-pool engine (1 vs 8 workers) on the three §4.3 query
// families over the Quick datasets. The parallel/8 variants are the
// ISSUE 2 acceptance numbers; on a single-core machine they
// necessarily degenerate to ~1x.
func BenchmarkEngine(b *testing.B) {
	envs := setupBench(b)
	ctx := context.Background()
	d := envs["wilds"]
	idx, err := d.Index(d.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	ids := d.Cat.MaskIDs(nil)
	groups := d.Cat.GroupByImage(nil)
	w, h := d.Params.W, d.Params.H
	for _, mode := range []struct {
		name string
		ex   core.Exec
	}{{"seq", core.Exec{}}, {"par8", core.Exec{Workers: 8}}} {
		env := &core.Env{Loader: d.Store, Index: idx, Exec: mode.ex}
		b.Run("Filter/"+mode.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchCfg.Seed))
			for i := 0; i < b.N; i++ {
				q := workload.RandomFilter(rng, d.Cat, w, h, ids)
				if _, _, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("TopK/"+mode.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchCfg.Seed))
			for i := 0; i < b.N; i++ {
				q := workload.RandomTopK(rng, w, h, ids)
				if _, _, err := core.TopK(ctx, env, q.Targets, q.Terms(), 0, q.K, q.Order); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("AggTopK/"+mode.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchCfg.Seed))
			for i := 0; i < b.N; i++ {
				q := workload.RandomAgg(rng, w, h, groups)
				if _, _, err := core.AggTopK(ctx, env, q.Groups, q.Terms(), 0, core.Mean, q.K, q.Order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEagerIndexBuild measures full-dataset CHI construction,
// sequential vs 8 workers.
func BenchmarkEagerIndexBuild(b *testing.B) {
	envs := setupBench(b)
	ctx := context.Background()
	d := envs["imagenet"]
	ids := d.Cat.MaskIDs(nil)
	cfg := d.SmallConfig()
	for _, mode := range []struct {
		name string
		ex   core.Exec
	}{{"seq", core.Exec{}}, {"par8", core.Exec{Workers: 8}}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := core.NewMemoryIndex(cfg)
				if _, err := core.IndexAll(ctx, d.Store, ix, ids, mode.ex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
