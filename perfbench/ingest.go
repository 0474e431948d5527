package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"masksearch"
	"masksearch/internal/core"
	"masksearch/internal/store"
)

// Ingest: writes beside reads. One open-loop writer appends a seeded
// batch of 16 masks every ingestPeriod (ack after fsync) and compacts
// the WAL after every ingestCompactEvery batches; one closed-loop reader
// runs the explore statement mix through DB.Query over the base plus
// the WAL tail. The DB persists its index as msserve does, so each
// compaction also checkpoints chi.gob.
const (
	ingestBatch        = 16
	ingestPeriod       = 200 * time.Millisecond
	ingestCompactEvery = 50 // 800 masks
	ingestStmts        = 800
	ingestImageBase    = 1_000_000 // appended masks get fresh image ids
)

// appended regenerates appended mask i from the seed: a mirrored copy
// of a seeded base mask with its metadata and a fresh image id.
func appended(src *store.Store, cat catalog, seed int64, i int) (masksearch.AppendMask, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	base := cat.rows[rng.Intn(len(cat.rows))]
	m, err := src.LoadMask(base.MaskID)
	if err != nil {
		return masksearch.AppendMask{}, err
	}
	defer src.ReleaseMask(m)
	w, h := m.W, m.H
	pix := make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pix[y*w+x] = m.Bytes[y*w+w-1-x]
		}
	}
	o := base.Object
	return masksearch.AppendMask{
		ImageID: ingestImageBase + int64(i), ModelID: base.ModelID, MaskType: base.MaskType,
		Label: base.Label, Pred: base.Pred, Modified: base.Modified,
		Object: core.Rect{X0: w - o.X1, Y0: o.Y0, X1: w - o.X0, Y1: o.Y1},
		Pixels: pix,
	}, nil
}

// readObs is one reader query: its statement, the answer's
// fingerprint, and the range of acknowledged batches its snapshot may
// have seen.
type readObs struct {
	stmt   int
	lo, hi int // batches acked before the query started / started before it ended
	got    uint64
	replay bool
}

type ingest struct {
	r       *run
	dir     string
	db      *masksearch.DB
	src     *store.Store // pristine base, the source of appended pixels
	cat     catalog      // base catalog
	first   int64        // id of the first appended mask
	stmts   []stmt
	refs    []answer
	acked   atomic.Int64 // batches acknowledged
	start   atomic.Int64 // batches whose Append has been called
	obs     []readObs
	obsMu   sync.Mutex
	replica *core.MemoryIndex // traced runs: base index plus observed appends

	// Writer results.
	appendLat, late, walAppend []float64 // ms
	compacts                   []float64 // ms
	walWritten, indexWritten   int64     // WAL bytes folded by compactions; chi.gob bytes checkpointed
}

func runIngest(ctx context.Context, r *run) error {
	data := filepath.Join(r.dir, "pristine")
	if err := masksearch.GenerateDataset(data, r.spec()); err != nil {
		return err
	}
	x := &ingest{r: r}
	ref, err := masksearch.OpenWith(data, masksearch.Options{EagerIndex: true, CacheBytes: masksearch.CacheUnbounded})
	if err != nil {
		return err
	}
	x.cat, err = newCatalog(ref.Entries())
	if err == nil {
		w, h := ref.MaskDims()
		x.stmts = exploreList(r.seed*100+7, x.cat, w, h, ingestStmts)
		x.refs, err = references(ctx, ref, x.stmts)
	}
	ref.Close()
	if err != nil {
		return err
	}
	if err := fullScanCheck(ctx, r, data, x.cat, x.stmts, x.refs, 4); err != nil {
		return err
	}
	x.first = x.cat.first + int64(len(x.cat.rows))
	if x.src, _, err = store.Open(data); err != nil {
		return err
	}
	defer x.src.Close()

	mem := startMemPeak()
	defer mem.mib()
	setupS, teardown, err := repeatSetup(func(i int) (func(), error) {
		dir := filepath.Join(r.dir, fmt.Sprint("db", i))
		if err := copyTree(data, dir); err != nil {
			return nil, err
		}
		db, err := masksearch.OpenWith(dir, masksearch.Options{
			EagerIndex: true, PersistIndexOnClose: true, CacheBytes: masksearch.CacheUnbounded,
		})
		if err != nil {
			return nil, err
		}
		if err := warm(db); err != nil {
			db.Close()
			return nil, err
		}
		x.dir, x.db = dir, db
		// x.db, not db: verify reopens the DB.
		return func() { x.db.Close(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	w, h := x.db.MaskDims()
	if !r.trace {
		p, err := x.phase(ctx, r.seconds, false)
		if err != nil {
			return err
		}
		ratio := indexRatio(x.db)
		mem.mib() // the peak ends with the measured phase, before the checks
		if err := x.verify(ctx); err != nil {
			return err
		}
		r.reportE2E(e2e{
			setupS: setupS, queries: p.queries, wall: p.wall, lat: &p.lat,
			loaded: p.loaded, loadedOver: p.loadedOver, maskBytes: w * h, indexRatio: ratio, mem: mem,
		})
		return nil
	}

	if err := probeLayers(ctx, r, x.dir, x.db, x.cat.ids(), 0); err != nil {
		return err
	}
	x.replica = core.NewMemoryIndex(indexConfig(w, h))
	if _, err := core.IndexAll(ctx, dbLoader{x.db}, x.replica, x.cat.ids(), core.ExecFor(0)); err != nil {
		return err
	}
	rs0, pc0 := x.db.ReadStats(), x.db.PlanCacheStats()
	plain, err := x.phase(ctx, r.seconds/2, false)
	if err != nil {
		return err
	}
	rs1, pc1 := x.db.ReadStats(), x.db.PlanCacheStats()
	r.storeDeltas(rs1.Sub(rs0), plain.queries)
	r.set("masksearch.plan_cache_hit_ratio", "ratio", planHitRatio(pc0, pc1))
	r.set("store.append_p50_ms", "ms", quantile(x.appendLat, 0.5))
	r.set("store.append_p95_ms", "ms", quantile(x.appendLat, 0.95))
	r.set("bench.gen_late_ms", "ms", mean(x.late))

	tp, err := x.phase(ctx, r.seconds/2, true)
	if err != nil {
		return err
	}
	is := x.db.Stats().Ingest
	r.set("store.compact_ms", "ms", mean(x.compacts))
	r.set("store.wal_append_ms", "ms", mean(x.walAppend))
	r.set("store.write_amp", "ratio", float64(x.walWritten+is.WALBytes+is.CompactedMasks*int64(w*h)+x.indexWritten)/float64(is.AppendedBytes))
	r.set("bench.trace_overhead_ratio", "ratio", tp.perClientQPS()/plain.perClientQPS())
	r.set("masksearch.self_ms", "ms", mean(tp.msSelf))
	tp.layers.report(r)
	if err := x.verify(ctx); err != nil {
		return err
	}
	r.zeroLayers()
	return nil
}

// phase runs the writer and the reader side by side for d.
func (x *ingest) phase(ctx context.Context, d time.Duration, traced bool) (*phase, error) {
	p := &phase{busy: make([]time.Duration, 1), done: make([]int64, 1)}
	x.appendLat, x.late, x.walAppend = nil, nil, nil
	start := time.Now()
	deadline := start.Add(d)
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = x.writer(ctx, start, deadline, traced)
	}()
	for i := 0; time.Now().Before(deadline); i++ {
		if err := x.read(ctx, p, i%len(x.stmts), traced); err != nil {
			wg.Wait()
			return nil, err
		}
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p, werr
}

// writer appends batches on a fixed schedule until deadline. Each
// batch's latency runs from its due time, so a stall also delays the
// batches queued behind it.
func (x *ingest) writer(ctx context.Context, start, deadline time.Time, traced bool) error {
	w, h := x.db.MaskDims()
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * ingestPeriod)
		if !due.Before(deadline) {
			return nil
		}
		b := int(x.start.Load())
		batch := make([]masksearch.AppendMask, ingestBatch)
		for j := range batch {
			m, err := appended(x.src, x.cat, x.r.seed, b*ingestBatch+j)
			if err != nil {
				return err
			}
			batch[j] = m
		}
		time.Sleep(time.Until(due))
		t0 := time.Now()
		x.start.Add(1)
		ids, err := x.db.Append(ctx, batch)
		t1 := time.Now()
		want := x.first + int64(b*ingestBatch)
		ok := err == nil && len(ids) == ingestBatch && ids[0] == want && ids[ingestBatch-1] == want+ingestBatch-1
		x.r.check(ok)
		if !ok {
			return fmt.Errorf("append batch %d: ids %v, err %v", b, ids, err)
		}
		if traced {
			// The CHI build Append performs for each new mask, timed
			// apart so the WAL write can be told from the index work.
			t2 := time.Now()
			for j, m := range batch {
				bm := core.NewByteMask(w, h)
				copy(bm.Bytes, m.Pixels)
				chi, err := core.Build(bm, x.replica.Config())
				if err != nil {
					return err
				}
				x.replica.Add(ids[j], chi)
			}
			build := time.Since(t2)
			req := x.r.tr.add("masksearch.append", 0, 0, t0, t1)
			x.r.tr.add("core.build", req, req, t2, t2.Add(build))
			x.walAppend = append(x.walAppend, float64((t1.Sub(t0)-build).Nanoseconds())/1e6)
		} else if x.replica != nil {
			for j, m := range batch {
				bm := core.NewByteMask(w, h)
				copy(bm.Bytes, m.Pixels)
				x.replica.Observe(ids[j], bm)
			}
		}
		x.acked.Add(1)
		x.appendLat = append(x.appendLat, float64(t1.Sub(due).Nanoseconds())/1e6)
		x.late = append(x.late, float64(t0.Sub(due).Nanoseconds())/1e6)
		if (b+1)%ingestCompactEvery == 0 {
			x.walWritten += x.db.Stats().Ingest.WALBytes
			t0 := time.Now()
			_, err := x.db.Compact(ctx)
			t1 := time.Now()
			x.r.check(err == nil)
			if err != nil {
				return fmt.Errorf("compact: %w", err)
			}
			x.compacts = append(x.compacts, float64(t1.Sub(t0).Nanoseconds())/1e6)
			fi, err := os.Stat(filepath.Join(x.dir, "chi.gob"))
			if err != nil {
				return fmt.Errorf("compact: no index checkpoint: %w", err)
			}
			x.indexWritten += fi.Size()
			if traced {
				x.r.tr.add("masksearch.compact", 0, 0, t0, t1)
			}
		}
	}
}

// read runs one reader query. Its answer is checked after the run,
// once the appended masks it may have seen are known.
func (x *ingest) read(ctx context.Context, p *phase, i int, traced bool) error {
	s := x.stmts[i]
	sql, args := s.sql()
	lo := int(x.acked.Load())
	t0 := time.Now()
	res, err := x.db.Query(ctx, sql, args...)
	t1 := time.Now()
	hi := int(x.start.Load())
	if err != nil {
		return fmt.Errorf("ingest query %q: %w", sql, err)
	}
	p.lat.add(t1.Sub(t0))
	p.queries++
	p.busy[0] += t1.Sub(t0)
	p.done[0]++
	p.loaded += int64(res.Stats.Loaded)
	p.loadedOver++
	x.obsMu.Lock()
	x.obs = append(x.obs, readObs{stmt: i, lo: lo, hi: hi, got: fromResult(res).sum()})
	x.obsMu.Unlock()
	if !traced {
		return nil
	}

	// Replay over a catalog snapshot pinned to the batches acked now;
	// the replica index holds exactly those appended masks.
	tr := x.r.tr
	req := tr.add("masksearch.query", 0, 0, t0, t1)
	pin := int(x.acked.Load())
	all := x.db.Entries()
	cat, err := newCatalog(all[:len(x.cat.rows)+pin*ingestBatch])
	if err != nil {
		return err
	}
	t2 := time.Now()
	got, _, err := replay(ctx, &core.Env{Loader: dbLoader{x.db}, Index: x.replica, Exec: core.ExecFor(0)}, cat, s)
	t3 := time.Now()
	if err != nil {
		return err
	}
	tr.add("core.call", req, req, t2, t3)
	cc := &coreCall{tr: tr, req: req, spans: true}
	got2, st, err := replay(ctx, cc.env(dbLoader{x.db}, x.replica, true, core.ExecFor(0)), cat, s)
	if err != nil {
		return err
	}
	p.layers.add(cc.finish(req, t3, time.Now(), st))
	p.msSelf = append(p.msSelf, float64(t1.Sub(t0)-t3.Sub(t2))/1e6)
	x.obsMu.Lock()
	x.obs = append(x.obs, readObs{stmt: i, lo: pin, hi: pin, got: got.sum(), replay: true},
		readObs{stmt: i, lo: pin, hi: pin, got: got2.sum(), replay: true})
	x.obsMu.Unlock()
	return nil
}

// verify checks every recorded answer against the references extended
// by the appended masks its snapshot may have seen, then closes and
// reopens the DB and checks every acknowledged mask is present and
// byte-identical.
func (x *ingest) verify(ctx context.Context) error {
	n := int(x.acked.Load()) * ingestBatch
	w, h := x.db.MaskDims()
	masks := make([]masksearch.AppendMask, n)
	bms := make([]*core.Mask, n)
	for i := range masks {
		m, err := appended(x.src, x.cat, x.r.seed, i)
		if err != nil {
			return err
		}
		masks[i] = m
		bms[i] = core.NewByteMask(w, h)
		copy(bms[i].Bytes, m.Pixels)
	}
	// cps[s][i] is statement s's CP on appended mask i (-1: filtered out).
	cps := make([][]int64, len(x.stmts))
	for si, s := range x.stmts {
		cps[si] = make([]int64, n)
		for i, m := range masks {
			e := store.Entry{ModelID: m.ModelID, Label: m.Label, Pred: m.Pred}
			if !x.cat.keep(s, e) {
				cps[si][i] = -1
				continue
			}
			roi := s.roi
			if s.obj {
				roi = m.Object
			}
			cps[si][i] = core.ExactCP(bms[i], roi, s.vr)
		}
	}
	expect := func(si, batches int) answer {
		s, ref := x.stmts[si], x.refs[si]
		var a answer
		switch s.kind {
		case kFilter:
			a.ids = slices.Clone(ref.ids)
			for i := 0; i < batches*ingestBatch; i++ {
				if cps[si][i] > s.thresh {
					a.ids = append(a.ids, x.first+int64(i))
				}
			}
		default:
			a.ranked = slices.Clone(ref.ranked)
			for i := 0; i < batches*ingestBatch; i++ {
				if cps[si][i] < 0 {
					continue
				}
				id := x.first + int64(i)
				if s.kind == kAgg {
					id = masks[i].ImageID
				}
				a.ranked = append(a.ranked, core.Scored{ID: id, Score: float64(cps[si][i])})
			}
			core.SortScored(a.ranked, s.order)
			a.ranked = a.ranked[:min(len(a.ranked), s.k)]
		}
		return a
	}
	for _, o := range x.obs {
		ok := false
		for b := o.lo; b <= o.hi && !ok; b++ {
			ok = o.got == expect(o.stmt, b).sum()
		}
		x.r.check(ok)
		if !ok {
			sql, _ := x.stmts[o.stmt].sql()
			fmt.Fprintf(os.Stderr, "perfbench: ingest %q (replay %v, batches %d..%d): wrong answer\n", sql, o.replay, o.lo, o.hi)
		}
	}
	x.obs = nil

	// Durability: every acknowledged mask survives a close and reopen.
	if err := x.db.Close(); err != nil {
		return err
	}
	db, err := masksearch.OpenWith(x.dir, masksearch.Options{})
	if err != nil {
		return err
	}
	x.db = db
	x.r.check(len(db.Entries()) == len(x.cat.rows)+n)
	for b := 0; b < n/ingestBatch; b++ {
		ok := true
		for j := 0; j < ingestBatch; j++ {
			i := b*ingestBatch + j
			id := x.first + int64(i)
			e, err := db.Entry(id)
			m, lerr := db.LoadMask(id)
			ok = ok && err == nil && lerr == nil && slices.Equal(m.Bytes, masks[i].Pixels) &&
				e.ImageID == masks[i].ImageID && e.Object == masks[i].Object
			db.ReleaseMask(m)
		}
		x.r.check(ok)
	}
	return nil
}
