package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"masksearch"
	"masksearch/internal/baseline"
	"masksearch/internal/core"
	"masksearch/internal/store"
)

// setupRepeats is how many times each run sets the system up; setup_s
// is their median and the last set-up is the one measured.
const setupRepeats = 5

// spec is the seeded wilds-sim dataset: 1,500 images with two model
// saliency maps and one human attention map each, 128x128 (73.7 MB).
func (r *run) spec() store.Spec {
	s := store.WildsSimSpec()
	s.Seed = r.seed
	return s
}

// indexConfig is the CHI granularity the DB picks for a w x h dataset.
func indexConfig(w, h int) core.Config {
	cfg, err := core.Config{CellW: max(2, w/4), CellH: max(2, h/4), Edges: core.DefaultEdges(10)}.Normalize()
	if err != nil {
		panic(err) // the literal configuration above is always valid
	}
	return cfg
}

// copyTree copies a dataset directory so every set-up starts from the
// same bytes and never from state an earlier set-up left behind.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// repeatSetup runs setup setupRepeats times, tearing down all but the
// last, and returns the median set-up seconds and the last teardown.
func repeatSetup(setup func(i int) (func(), error)) (float64, func(), error) {
	var secs []float64
	var teardown func()
	for i := 0; i < setupRepeats; i++ {
		if teardown != nil {
			teardown()
			runtime.GC() // return the torn-down set-up's memory before the next
		}
		t0 := time.Now()
		td, err := setup(i)
		if err != nil {
			return 0, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		teardown = td
	}
	return median(secs), teardown, nil
}

// warm loads every mask once so an unbounded cache holds the data set.
func warm(db *masksearch.DB) error {
	for _, e := range db.Entries() {
		m, err := db.LoadMask(e.MaskID)
		if err != nil {
			return err
		}
		db.ReleaseMask(m)
	}
	return nil
}

// fullScanCheck cross-checks the first n references against the
// unindexed FullScan baseline over dir.
func fullScanCheck(ctx context.Context, r *run, dir string, c catalog, stmts []stmt, refs []answer, n int) error {
	st, _, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	fs := baseline.NewFullScan(st)
	for i := 0; i < min(n, len(stmts)); i++ {
		s := stmts[i]
		targets, terms := c.targets(s), c.terms(s)
		var got answer
		switch s.kind {
		case kFilter:
			got.ids, _, err = fs.Filter(ctx, targets, terms, core.Cmp{T: 0, Op: core.OpGt, C: s.thresh})
		case kTopK:
			got.ranked, _, err = fs.TopK(ctx, targets, terms, 0, s.k, s.order)
		default:
			got.ranked, _, err = fs.AggTopK(ctx, c.groups(targets), terms, 0, core.Mean, s.k, s.order)
		}
		if err != nil {
			return err
		}
		ok := got.equal(refs[i])
		r.check(ok)
		if !ok {
			sql, _ := stmts[i].sql()
			fmt.Fprintf(os.Stderr, "perfbench: reference differs from FullScan: %s\n", sql)
		}
	}
	return nil
}

// lats collects latencies from concurrent goroutines.
type lats struct {
	mu sync.Mutex
	ms []float64
}

func (l *lats) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// quantile is the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// e2e is what a workload reports as its end-to-end metrics.
type e2e struct {
	setupS     float64
	queries    int64
	wall       time.Duration
	lat        *lats
	loaded     int64 // masks the engine loaded (cache or disk), summed over queries
	loadedOver int64 // queries the loaded count covers
	maskBytes  int
	indexRatio float64
	mem        *memPeak
}

// memPeak samples the Go runtime's memory (mapped minus released to
// the OS) every few milliseconds until stop, keeping the peak. It starts
// after the references are computed, so it covers the system's set-ups
// and the measured phase, not the benchmark's reference DB.
type memPeak struct {
	stop, done chan struct{}
	once       sync.Once
	peak       uint64
}

func startMemPeak() *memPeak {
	runtime.GC()
	debug.FreeOSMemory()
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(samples)
			m.peak = max(m.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// mib stops the sampler (once) and returns the peak in MiB.
func (m *memPeak) mib() float64 {
	m.once.Do(func() { close(m.stop) })
	<-m.done
	return float64(m.peak) / (1 << 20)
}

func (r *run) reportE2E(e e2e) {
	r.set("setup_s", "s", e.setupS)
	r.set("qps", "1/s", float64(e.queries)/e.wall.Seconds())
	r.set("query_p50_ms", "ms", quantile(e.lat.ms, 0.5))
	r.set("query_p95_ms", "ms", quantile(e.lat.ms, 0.95))
	r.set("load_mib_per_query", "MiB", float64(e.loaded)*float64(e.maskBytes)/(1<<20)/float64(max(e.loadedOver, 1)))
	r.set("index_size_ratio", "ratio", e.indexRatio)
	r.set("mem_peak_mib", "MiB", e.mem.mib())
	r.set("ok_ratio", "ratio", float64(r.out.Attempted-r.out.Failed)/float64(max(r.out.Attempted, 1)))
}

// indexRatio is CHI bytes over the stored bytes of the indexed masks.
func indexRatio(db *masksearch.DB) float64 {
	is, _ := db.IndexStats()
	w, h := db.MaskDims()
	if is.IndexedMasks == 0 {
		return 0
	}
	return float64(is.IndexBytes) / float64(int64(is.IndexedMasks)*int64(w*h))
}

// probeLayers measures the set-up-time layer costs every traced run
// reports: store open, eager CHI construction, and Prepare on unseen
// statement text.
func probeLayers(ctx context.Context, r *run, dir string, db *masksearch.DB, ids []int64, workers int) error {
	var opens []float64
	var st store.MaskStore
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, _, err := store.OpenAny(dir)
		if err != nil {
			return err
		}
		t1 := time.Now()
		r.tr.add("store.open", 0, 0, t0, t1)
		opens = append(opens, t1.Sub(t0).Seconds())
		if st != nil {
			st.Close()
		}
		st = s
	}
	defer st.Close()
	r.set("store.open_s", "s", median(opens))

	t0 := time.Now()
	if _, err := core.IndexAll(ctx, st, core.NewMemoryIndex(indexConfig(st.MaskW(), st.MaskH())), ids, core.ExecFor(workers)); err != nil {
		return err
	}
	t1 := time.Now()
	r.tr.add("core.index_all", 0, 0, t0, t1)
	r.set("core.index_build_s", "s", t1.Sub(t0).Seconds())

	// Prepare fresh literal statements: their text is new to the plan
	// cache, so each call parses and plans.
	c, err := newCatalog(db.Entries())
	if err != nil {
		return err
	}
	w, h := db.MaskDims()
	pc0 := db.PlanCacheStats()
	var us []float64
	for _, s := range exploreList(r.seed^0x5eed, c, w, h, 200) {
		s.prep = false
		sql, _ := s.sql()
		t0 := time.Now()
		if _, err := db.Prepare(sql); err != nil {
			return err
		}
		t1 := time.Now()
		r.tr.add("masksearch.prepare", 0, 0, t0, t1)
		us = append(us, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	if pc := db.PlanCacheStats(); pc.Misses-pc0.Misses < 190 {
		return fmt.Errorf("prepare probe: only %d of 200 statements were unseen", pc.Misses-pc0.Misses)
	}
	r.set("masksearch.prepare_us", "us", median(us))
	return nil
}

// zeroLayers reports the per-layer metrics of layers a workload does
// not run as 0, so every traced run prints the full metric set.
func (r *run) zeroLayers() {
	for n, unit := range workloadOnly {
		if _, ok := r.out.Metrics[n]; !ok {
			r.set(n, unit, 0)
		}
	}
}

// workloadOnly lists, with their units, the per-layer metrics that only
// some workloads produce (BENCHMARK.json lists the same names and units).
var workloadOnly = map[string]string{
	"serve.self_ms": "ms", "serve.resp_kib": "KiB", "serve.rejected_ratio": "ratio",
	"masksearch.self_ms": "ms", "masksearch.plan_cache_hit_ratio": "ratio",
	"store.cache_hit_ratio": "ratio", "store.cache_evicted_per_query": "count",
	"store.disk_mib_per_query": "MiB", "store.tail_loads_per_query": "count",
	"store.wal_append_ms": "ms", "store.append_p50_ms": "ms", "store.append_p95_ms": "ms",
	"store.compact_ms": "ms", "store.write_amp": "ratio",
	"dist.node_ms": "ms", "dist.coord_self_ms": "ms", "dist.requests_per_query": "count",
	"dist.kib_per_query": "KiB", "dist.tau_sent_per_query": "count",
	"dist.remote_masks_per_query": "count", "dist.hedges_per_query": "count", "dist.retries": "count",
	"bench.gen_late_ms": "ms",
}

// storeDeltas reports the store.* read metrics over a phase.
func (r *run) storeDeltas(d masksearch.ReadStats, queries int64) {
	q := float64(max(queries, 1))
	r.set("store.cache_hit_ratio", "ratio", float64(d.CacheHits)/float64(max(d.CacheHits+d.CacheMisses, 1)))
	r.set("store.cache_evicted_per_query", "count", float64(d.CacheEvicted)/q)
	r.set("store.disk_mib_per_query", "MiB", float64(d.BytesRead)/(1<<20)/q)
	r.set("store.tail_loads_per_query", "count", float64(d.TailLoads)/q)
}

// planHitRatio is the plan-cache hit ratio between two snapshots.
func planHitRatio(a, b masksearch.PlanCacheStats) float64 {
	h, m := b.Hits-a.Hits, b.Misses-a.Misses
	return float64(h) / float64(max(h+m, 1))
}
