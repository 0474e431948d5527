package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"masksearch"
	"masksearch/internal/core"
	"masksearch/internal/store"
	"masksearch/internal/workload"
)

// Incremental: the paper's multi-query exploration workload (§3.6,
// §4.5). One library caller runs episodes of steps; each step is one
// DB.QueryBatch of a few CP filters over a metadata-defined subset, and
// about half the steps revisit an earlier subset with fresh thresholds.
// Every episode starts from a freshly opened DB with an empty index, so
// an episode repeats exactly; the mask cache is smaller than a step's
// working set.
const (
	incSteps      = 300
	incPerStep    = 4
	incCacheBytes = 4 << 20 // 256 masks of 16 KiB
)

// subset returns the n-th new subset of an episode, cycling through
// five kinds: one model's masks (1,500), the model masks (3,000), the
// masks of all but one label (~4,050), the wrongly predicted ones, or
// one model's correctly predicted ones. rot rotates the values a kind
// takes on its successive turns.
func subset(n, rot int) []meta {
	turn := n/5 + rot
	switch n % 5 {
	case 0:
		return []meta{{col: "model_id", val: turn % 3}} // 0 = human attention
	case 1:
		return []meta{{col: "model_id", val: 0, ne: true}}
	case 2:
		return []meta{{col: "label", val: turn % 10, ne: true}}
	case 3:
		return []meta{{col: "mispredicted", val: 1}}
	}
	return []meta{{col: "mispredicted", val: 0}, {col: "model_id", val: 1 + turn%2}}
}

// incrementalSteps draws one episode. As in the §4.5 workload
// (workload.MultiQuery, run with p_seen = 0.5 by msbench's multiquery
// experiment), a step either revisits an earlier subset with fresh
// statements or opens a new one. Two departures keep the episode's work
// alike from seed to seed: every odd step revisits, so the share of
// revisits is exactly p_seen, and it revisits a uniformly chosen subset
// of those opened so far, where MultiQuery picks a uniformly chosen
// earlier query and so lets the first few subsets take most revisits
// in shares that change with the seed. Every statement draws its own
// region, value range and threshold through workload.RandomFilter.
func incrementalSteps(seed int64, c catalog, w, h int) [][]stmt {
	rng := rand.New(rand.NewSource(seed))
	cat := store.NewCatalog(c.rows)
	rot := rng.Intn(30)
	var opened [][]meta
	steps := make([][]stmt, incSteps)
	for i := range steps {
		metas := subset(len(opened), rot)
		if i%2 == 1 {
			metas = opened[rng.Intn(len(opened))]
		} else {
			opened = append(opened, metas)
		}
		targets := c.targets(stmt{metas: metas})
		for j := 0; j < incPerStep; j++ {
			steps[i] = append(steps[i], fromFilter(workload.RandomFilter(rng, cat, w, h, targets), metas))
		}
	}
	return steps
}

// shadow is a benchmark-owned store and index that start each episode
// as empty as the DB's and see the same statements in the same order,
// so a replay over it meets the state the DB call met.
type shadow struct {
	st  store.MaskStore
	idx *core.MemoryIndex
}

func openShadow(dir string, cfg core.Config) (*shadow, error) {
	st, _, err := store.OpenAny(dir)
	if err != nil {
		return nil, err
	}
	st.SetCacheBytes(incCacheBytes)
	return &shadow{st: st, idx: core.NewMemoryIndex(cfg)}, nil
}

func batchOf(c catalog, stmts []stmt) []core.BatchQuery {
	out := make([]core.BatchQuery, len(stmts))
	for i, s := range stmts {
		out[i] = core.BatchQuery{Kind: core.BatchFilter, Targets: c.targets(s), Terms: c.terms(s),
			Pred: core.Cmp{T: 0, Op: core.OpGt, C: s.thresh}}
	}
	return out
}

type incremental struct {
	r     *run
	dir   string
	db    *masksearch.DB
	fresh bool // db is freshly opened: empty index, empty cache
	cat   catalog
	steps [][]stmt
	sqls  [][]string
	refs  [][]answer
}

func (x *incremental) open() error {
	db, err := masksearch.OpenWith(x.dir, masksearch.Options{CacheBytes: incCacheBytes})
	x.db, x.fresh = db, err == nil
	return err
}

func runIncremental(ctx context.Context, r *run) error {
	data := filepath.Join(r.dir, "pristine")
	if err := masksearch.GenerateDataset(data, r.spec()); err != nil {
		return err
	}
	x := &incremental{r: r}
	ref, err := masksearch.OpenWith(data, masksearch.Options{EagerIndex: true, CacheBytes: masksearch.CacheUnbounded})
	if err != nil {
		return err
	}
	if x.cat, err = newCatalog(ref.Entries()); err != nil {
		ref.Close()
		return err
	}
	w, h := ref.MaskDims()
	x.steps = incrementalSteps(r.seed, x.cat, w, h)
	var all []stmt
	for _, st := range x.steps {
		refs, err := references(ctx, ref, st)
		if err != nil {
			ref.Close()
			return err
		}
		var sqls []string
		for _, s := range st {
			sql, _ := s.sql()
			sqls = append(sqls, sql)
		}
		x.refs, x.sqls, all = append(x.refs, refs), append(x.sqls, sqls), append(all, st...)
	}
	ref.Close()
	var allRefs []answer
	for _, rs := range x.refs {
		allRefs = append(allRefs, rs...)
	}
	if err := fullScanCheck(ctx, r, data, x.cat, all, allRefs, 4); err != nil {
		return err
	}

	mem := startMemPeak()
	defer mem.mib()
	setupS, teardown, err := repeatSetup(func(i int) (func(), error) {
		x.dir = filepath.Join(r.dir, fmt.Sprint("db", i))
		if err := copyTree(data, x.dir); err != nil {
			return nil, err
		}
		if err := x.open(); err != nil {
			return nil, err
		}
		dir, db := x.dir, x.db
		return func() { db.Close(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	defer func() { x.db.Close(); teardown() }()

	if !r.trace {
		p, ratio, err := x.episodes(ctx, r.seconds, false)
		if err != nil {
			return err
		}
		r.reportE2E(e2e{
			setupS: setupS, queries: p.queries, wall: p.busy[0], lat: &p.lat,
			loaded: p.loaded, loadedOver: p.loadedOver, maskBytes: w * h, indexRatio: ratio, mem: mem,
		})
		return nil
	}

	if err := probeLayers(ctx, r, x.dir, x.db, x.cat.ids(), 0); err != nil {
		return err
	}
	x.fresh = false // the probe prepared statements
	plain, _, err := x.episodes(ctx, r.seconds/2, false)
	if err != nil {
		return err
	}
	tp, _, err := x.episodes(ctx, r.seconds/2, true)
	if err != nil {
		return err
	}
	r.storeDeltas(plain.reads, plain.queries)
	r.set("masksearch.plan_cache_hit_ratio", "ratio", planHitRatio(masksearch.PlanCacheStats{}, plain.plans))
	r.set("bench.trace_overhead_ratio", "ratio", tp.perClientQPS()/plain.perClientQPS())
	r.set("masksearch.self_ms", "ms", mean(tp.msSelf))
	tp.layers.report(r)
	r.zeroLayers()
	return nil
}

// incPhase extends phase with the counters an episode's DB reports
// since it was opened.
type incPhase struct {
	*phase
	reads masksearch.ReadStats
	plans masksearch.PlanCacheStats
}

// episodes runs whole episodes until d has passed. It returns the
// phase, and the index size ratio at the end of the first episode.
func (x *incremental) episodes(ctx context.Context, d time.Duration, traced bool) (*incPhase, float64, error) {
	p := &incPhase{phase: &phase{busy: make([]time.Duration, 1), done: make([]int64, 1)}}
	var ratio float64
	start := time.Now()
	for e := 0; e == 0 || time.Since(start) < d; e++ {
		if !x.fresh {
			if err := x.db.Close(); err != nil {
				return nil, 0, err
			}
			if err := x.open(); err != nil {
				return nil, 0, err
			}
		}
		x.fresh = false
		if err := x.episode(ctx, p, traced); err != nil {
			return nil, 0, err
		}
		if e == 0 {
			ratio = indexRatio(x.db)
		}
		addReads(&p.reads, x.db.ReadStats())
		pc := x.db.PlanCacheStats()
		p.plans.Hits += pc.Hits
		p.plans.Misses += pc.Misses
	}
	p.wall = time.Since(start)
	return p, ratio, nil
}

// episode runs every step once; traced, it replays each step over two
// shadows: one for the paired core call, one instrumented.
func (x *incremental) episode(ctx context.Context, p *incPhase, traced bool) error {
	var sh [2]*shadow
	if traced {
		for i := range sh {
			s, err := openShadow(x.dir, indexConfig(x.db.MaskDims()))
			if err != nil {
				return err
			}
			defer s.st.Close()
			sh[i] = s
		}
	}
	for i, st := range x.steps {
		if err := x.step(ctx, p, i, st, sh); err != nil {
			return err
		}
	}
	return nil
}

func addReads(a *masksearch.ReadStats, b masksearch.ReadStats) {
	a.MasksLoaded += b.MasksLoaded
	a.BytesRead += b.BytesRead
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.CacheEvicted += b.CacheEvicted
	a.TailLoads += b.TailLoads
}

// step runs one QueryBatch and checks every statement's answer. In a
// traced phase it then replays the batch through core.ExecBatch twice
// over the two shadows: plain, to pair with the DB call, and
// instrumented, to split it into layers.
func (x *incremental) step(ctx context.Context, p *incPhase, i int, stmts []stmt, sh [2]*shadow) error {
	t0 := time.Now()
	res, err := x.db.QueryBatch(ctx, x.sqls[i])
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("step %d: %w", i, err)
	}
	for j, rr := range res {
		ok := fromResult(rr).equal(x.refs[i][j])
		x.r.check(ok)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: incremental %q: wrong answer\n", x.sqls[i][j])
		}
		p.loaded += int64(rr.Stats.Loaded)
		p.loadedOver++
	}
	p.lat.add(t1.Sub(t0))
	p.queries += int64(len(res))
	p.busy[0] += t1.Sub(t0)
	p.done[0] += int64(len(res))
	if sh[0] == nil {
		return nil
	}

	tr := x.r.tr
	req := tr.add("masksearch.query_batch", 0, 0, t0, t1)
	qs := batchOf(x.cat, stmts)
	observe := func(idx *core.MemoryIndex) func(int64, *core.Mask) {
		return func(id int64, m *core.Mask) {
			if chi, _ := idx.ChiFor(id); chi == nil {
				idx.Observe(id, m)
			}
		}
	}
	t2 := time.Now()
	got, err := core.ExecBatch(ctx, &core.Env{Loader: sh[0].st, Index: sh[0].idx, OnVerify: observe(sh[0].idx), Exec: core.ExecFor(0)}, qs)
	t3 := time.Now()
	if err != nil {
		return err
	}
	tr.add("core.call", req, req, t2, t3)
	cc := &coreCall{tr: tr, req: req, spans: true}
	env := cc.env(sh[1].st, sh[1].idx, true, core.ExecFor(0))
	t4 := time.Now()
	got2, err := core.ExecBatch(ctx, env, qs)
	t5 := time.Now()
	if err != nil {
		return err
	}
	var st core.Stats
	for j := range got {
		want := x.refs[i][j]
		x.r.check(answer{ids: got[j].IDs}.equal(want))
		x.r.check(answer{ids: got2[j].IDs}.equal(want))
		st.Merge(got2[j].Stats)
	}
	p.layers.addBatch(cc.finish(req, t4, t5, st), len(got))
	p.msSelf = append(p.msSelf, float64(t1.Sub(t0)-t3.Sub(t2))/1e6)
	return nil
}
