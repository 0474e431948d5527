package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"masksearch"
	"masksearch/internal/core"
	"masksearch/internal/serve"
)

// Explore: two closed-loop HTTP clients, one session each, against an
// in-process internal/serve server over loopback. The DB runs one
// worker over a full CHI index and an unbounded, pre-warmed mask cache.
const (
	exploreClients = 2
	exploreStmts   = 800 // statements per client, cycled
	// exactPrefix is how many statements per client the traced phase's
	// count metrics cover, a fixed set so the counts repeat exactly;
	// recount checks that they do.
	exactPrefix = 100
)

// dbLoader loads through the DB's own store and cache.
type dbLoader struct{ db *masksearch.DB }

func (l dbLoader) LoadMask(id int64) (*core.Mask, error) { return l.db.LoadMask(id) }
func (l dbLoader) ReleaseMask(m *core.Mask)              { l.db.ReleaseMask(m) }

// httpAnswer is the part of a /query response the benchmark checks.
type httpAnswer struct {
	IDs    []int64       `json:"ids"`
	Ranked []core.Scored `json:"ranked"`
	Stats  struct {
		Loaded int64 `json:"loaded"`
	} `json:"stats"`
}

// post sends one /query request and decodes the answer.
func post(c *http.Client, url string, req any) (httpAnswer, int, int, error) {
	var ans httpAnswer
	body, err := json.Marshal(req)
	if err != nil {
		return ans, 0, 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return ans, 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return ans, resp.StatusCode, len(raw), err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &ans)
	}
	return ans, resp.StatusCode, len(raw), err
}

// phase is what one measured phase of a closed-loop workload gathers.
type phase struct {
	mu         sync.Mutex
	lat        lats
	queries    int64
	wall       time.Duration
	loaded     int64 // engine-loaded masks over each client's first pass
	loadedOver int64
	busy       []time.Duration // per client: time inside the timed call
	done       []int64         // per client: completed calls
	prefix     [][]prefixCount // per client: counts of its first exactPrefix calls

	// Traced phases only.
	layers    layerSums
	serveSelf []float64
	msSelf    []float64
	respBytes int64
	rejected  int64
	traceReqs int64
}

// perClientQPS is Σ over clients of calls ÷ time inside calls, which
// leaves out work a traced client does between its timed calls.
func (p *phase) perClientQPS() float64 {
	var q float64
	for c := range p.busy {
		if p.busy[c] > 0 {
			q += float64(p.done[c]) / p.busy[c].Seconds()
		}
	}
	return q
}

// prefixCount is what one of a client's first exactPrefix calls
// reported: the masks the engine loaded and, in a traced phase, the
// instrumented replay's targets, loaded masks and load calls.
type prefixCount struct {
	loaded, targets, replayLoaded, loads int64
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

type explore struct {
	r       *run
	db      *masksearch.DB
	url     string
	client  *http.Client
	cat     catalog
	lists   [][]stmt
	refs    [][]answer
	replica *core.MemoryIndex // traced runs: the same full index, benchmark-owned
	reqs    int64
}

func runExplore(ctx context.Context, r *run) error {
	data := filepath.Join(r.dir, "pristine")
	if err := masksearch.GenerateDataset(data, r.spec()); err != nil {
		return err
	}
	x := &explore{r: r}
	if err := x.prepare(ctx, data); err != nil {
		return err
	}

	var ts *httptest.Server
	mem := startMemPeak()
	defer mem.mib()
	setupS, teardown, err := repeatSetup(func(i int) (func(), error) {
		dir := filepath.Join(r.dir, fmt.Sprint("db", i))
		if err := copyTree(data, dir); err != nil {
			return nil, err
		}
		db, err := masksearch.OpenWith(dir, masksearch.Options{
			EagerIndex: true, Workers: 1, CacheBytes: masksearch.CacheUnbounded,
		})
		if err != nil {
			return nil, err
		}
		if err := warm(db); err != nil {
			db.Close()
			return nil, err
		}
		ts = httptest.NewServer(serve.New(db, serve.Config{}))
		x.db, x.url, x.client = db, ts.URL+"/query", ts.Client()
		return func() { ts.Close(); db.Close(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	if !r.trace {
		p := x.phase(ctx, r.seconds, false)
		if err := x.recount(ctx, p, false); err != nil {
			return err
		}
		r.reportE2E(e2e{
			setupS: setupS, queries: p.queries, wall: p.wall, lat: &p.lat,
			loaded: p.loaded, loadedOver: p.loadedOver, maskBytes: 128 * 128,
			indexRatio: indexRatio(x.db), mem: mem,
		})
		return nil
	}

	if err := probeLayers(ctx, r, filepath.Join(r.dir, fmt.Sprint("db", setupRepeats-1)), x.db, x.cat.ids(), 1); err != nil {
		return err
	}
	w, h := x.db.MaskDims()
	x.replica = core.NewMemoryIndex(indexConfig(w, h))
	if _, err := core.IndexAll(ctx, dbLoader{x.db}, x.replica, x.cat.ids(), core.ExecFor(0)); err != nil {
		return err
	}
	rs0, pc0 := x.db.ReadStats(), x.db.PlanCacheStats()
	plain := x.phase(ctx, r.seconds/2, false)
	rs1, pc1 := x.db.ReadStats(), x.db.PlanCacheStats()
	r.storeDeltas(rs1.Sub(rs0), plain.queries)
	r.set("masksearch.plan_cache_hit_ratio", "ratio", planHitRatio(pc0, pc1))
	if err := x.recount(ctx, plain, false); err != nil {
		return err
	}

	tp := x.phase(ctx, r.seconds/2, true)
	if err := x.recount(ctx, tp, true); err != nil {
		return err
	}
	r.set("bench.trace_overhead_ratio", "ratio", tp.perClientQPS()/plain.perClientQPS())
	r.set("serve.self_ms", "ms", mean(tp.serveSelf))
	r.set("serve.resp_kib", "KiB", float64(tp.respBytes)/1024/float64(max(tp.traceReqs, 1)))
	r.set("serve.rejected_ratio", "ratio", float64(plain.rejected+tp.rejected)/float64(plain.queries+tp.queries))
	r.set("masksearch.self_ms", "ms", mean(tp.msSelf))
	tp.layers.report(r)
	r.zeroLayers()
	return nil
}

// prepare draws each client's statement list and answers it through a
// separate reference DB, then cross-checks a sample against FullScan.
func (x *explore) prepare(ctx context.Context, data string) error {
	ref, err := masksearch.OpenWith(data, masksearch.Options{EagerIndex: true, CacheBytes: masksearch.CacheUnbounded})
	if err != nil {
		return err
	}
	defer ref.Close()
	if x.cat, err = newCatalog(ref.Entries()); err != nil {
		return err
	}
	w, h := ref.MaskDims()
	for c := 0; c < exploreClients; c++ {
		list := exploreList(x.r.seed*100+int64(c), x.cat, w, h, exploreStmts)
		refs, err := references(ctx, ref, list)
		if err != nil {
			return err
		}
		x.lists, x.refs = append(x.lists, list), append(x.refs, refs)
	}
	return fullScanCheck(ctx, x.r, data, x.cat, x.lists[0], x.refs[0], 6)
}

// phase runs every client's closed loop for d.
func (x *explore) phase(ctx context.Context, d time.Duration, traced bool) *phase {
	p := &phase{busy: make([]time.Duration, exploreClients), done: make([]int64, exploreClients),
		prefix: make([][]prefixCount, exploreClients)}
	for c := range p.prefix {
		p.prefix[c] = make([]prefixCount, 0, exactPrefix) // never grows, so pointers into it stay valid
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < exploreClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.loop(ctx, p, c, deadline, traced)
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func (x *explore) loop(ctx context.Context, p *phase, c int, deadline time.Time, traced bool) {
	list, refs := x.lists[c], x.refs[c]
	sess := fmt.Sprintf("client-%d", c)
	for i := 0; time.Now().Before(deadline); i++ {
		s, want := list[i%len(list)], refs[i%len(list)]
		sql, args := s.sql()
		// Prepared templates run through the client's session; literal
		// ad-hoc text goes session-less through the DB plan cache.
		req := map[string]any{"sql": sql}
		if len(args) > 0 {
			req["args"], req["session"] = args, sess
		}
		t0 := time.Now()
		ans, status, n, err := post(x.client, x.url, req)
		t1 := time.Now()
		ok := err == nil && status == http.StatusOK && (answer{ids: ans.IDs, ranked: ans.Ranked}).equal(want)
		x.r.check(ok)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: explore %q: status %d err %v\n", sql, status, err)
		}
		p.lat.add(t1.Sub(t0))
		p.mu.Lock()
		p.queries++
		p.busy[c] += t1.Sub(t0)
		p.done[c]++
		if status == http.StatusTooManyRequests {
			p.rejected++
		}
		if i < len(list) {
			p.loaded += ans.Stats.Loaded
			p.loadedOver++
		}
		var pc *prefixCount
		if i < exactPrefix {
			p.prefix[c] = append(p.prefix[c], prefixCount{loaded: ans.Stats.Loaded})
			pc = &p.prefix[c][i]
		}
		p.mu.Unlock()
		if traced {
			x.traceOne(ctx, p, s, want, pc, t0, t1, n)
		}
	}
}

// traceOne records the request's HTTP span, then pairs it with a
// direct DB.Query of the same request and a replay of the core call.
// pc, set for a client's first exactPrefix calls, receives the replay's
// counts.
func (x *explore) traceOne(ctx context.Context, p *phase, s stmt, want answer, pc *prefixCount, t0, t1 time.Time, n int) {
	tr := x.r.tr
	p.mu.Lock()
	x.reqs++
	req := x.reqs
	p.mu.Unlock()
	tr.add("serve.http", 0, req, t0, t1)

	sql, args := s.sql()
	t2 := time.Now()
	res, err := x.db.Query(ctx, sql, args...)
	t3 := time.Now()
	ms := tr.add("masksearch.query", 0, req, t2, t3)
	x.r.check(err == nil && fromResult(res).equal(want))

	// The core call alone, uninstrumented, pairs with the DB call; the
	// instrumented replay then splits it into layers.
	t4 := time.Now()
	got, _, err := replay(ctx, &core.Env{Loader: dbLoader{x.db}, Index: x.replica, Exec: core.ExecFor(1)}, x.cat, s)
	t5 := time.Now()
	tr.add("core.call", ms, req, t4, t5)
	x.r.check(err == nil && got.equal(want))

	counted := pc != nil
	cc := &coreCall{tr: tr, req: req, spans: counted}
	env := cc.env(dbLoader{x.db}, x.replica, true, core.ExecFor(1))
	t6 := time.Now()
	got, st, err := replay(ctx, env, x.cat, s)
	cs := cc.finish(ms, t6, time.Now(), st)
	x.r.check(err == nil && got.equal(want))

	p.mu.Lock()
	defer p.mu.Unlock()
	p.traceReqs++
	p.respBytes += int64(n)
	p.serveSelf = append(p.serveSelf, float64(t1.Sub(t0)-t3.Sub(t2))/1e6)
	p.msSelf = append(p.msSelf, float64(t3.Sub(t2)-t5.Sub(t4))/1e6)
	if counted {
		p.layers.add(cs)
		pc.targets, pc.replayLoaded, pc.loads = int64(st.Targets), int64(st.Loaded), cs.loads
	}
}

// recount runs every client's first exactPrefix statements of a phase
// again and checks that the counts behind load_mib_per_query, core.fml
// and store.masks_loaded_per_query repeat exactly: at Workers: 1 over a
// full index they depend on the statement alone. A mismatch counts as a
// failed operation.
func (x *explore) recount(ctx context.Context, p *phase, traced bool) error {
	for c, counts := range p.prefix {
		for i, want := range counts {
			s := x.lists[c][i]
			sql, args := s.sql()
			res, err := x.db.Query(ctx, sql, args...)
			if err != nil {
				return err
			}
			got := prefixCount{loaded: int64(res.Stats.Loaded)}
			if traced {
				cc := &coreCall{tr: x.r.tr}
				_, st, err := replay(ctx, cc.env(dbLoader{x.db}, x.replica, true, core.ExecFor(1)), x.cat, s)
				if err != nil {
					return err
				}
				got.targets, got.replayLoaded, got.loads = int64(st.Targets), int64(st.Loaded), int64(len(cc.loads))
			}
			x.r.check(got == want)
			if got != want {
				fmt.Fprintf(os.Stderr, "perfbench: explore counts do not repeat for %q: %+v then %+v\n", sql, want, got)
			}
		}
	}
	return nil
}
