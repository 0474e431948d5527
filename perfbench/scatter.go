package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"masksearch"
	"masksearch/internal/core"
	"masksearch/internal/dist"
	"masksearch/internal/store"
)

// Scatter: a 2-shard copy of wilds-sim served by two in-process
// dist.Nodes on loopback TCP. The coordinator DB opens with a topology
// file and the default DistOptions; one closed-loop caller issues the
// explore mix of CP filters, Top-K and aggregations.
const scatterStmts = 800

// nodeSpans records one interval per accepted node connection, from
// the first request byte the node reads to the start of its last
// response write; a node serves one request per connection. Times are
// nanoseconds since epoch, on the monotonic clock.
type nodeSpans struct {
	epoch time.Time
	mu    sync.Mutex
	live  []*connSpan
}

type connSpan struct{ start, end atomic.Int64 }

func (n *nodeSpans) since() int64 { return time.Since(n.epoch).Nanoseconds() }

// take removes and returns the spans of connections that began reading
// before t, clipped to end by t: a request still in flight at t, such
// as a losing hedge, counts up to t and no further.
func (n *nodeSpans) take(t time.Time) [][2]time.Time {
	cut := t.Sub(n.epoch).Nanoseconds()
	n.mu.Lock()
	defer n.mu.Unlock()
	var out [][2]time.Time
	keep := n.live[:0]
	for _, s := range n.live {
		start := s.start.Load()
		if start >= cut {
			keep = append(keep, s)
			continue
		}
		end := s.end.Load()
		if end < start || end > cut {
			end = cut
		}
		out = append(out, [2]time.Time{n.epoch.Add(time.Duration(start)), n.epoch.Add(time.Duration(end))})
	}
	n.live = keep
	return out
}

type spanListener struct {
	net.Listener
	rec *nodeSpans
}

func (l spanListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spanConn{Conn: c, rec: l.rec}, nil
}

// spanConn registers its span at the first byte read and moves the
// span's end to the start of every write; the end is stored before the
// bytes leave, so it is in place when the coordinator sees them.
type spanConn struct {
	net.Conn
	rec  *nodeSpans
	span *connSpan
}

func (c *spanConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.span == nil {
		c.span = &connSpan{}
		c.span.start.Store(c.rec.since())
		c.rec.mu.Lock()
		c.rec.live = append(c.rec.live, c.span)
		c.rec.mu.Unlock()
	}
	return n, err
}

func (c *spanConn) Write(p []byte) (int, error) {
	if c.span != nil {
		c.span.end.Store(c.rec.since())
	}
	return c.Conn.Write(p)
}

type scatter struct {
	r      *run
	db     *masksearch.DB
	stores []store.MaskStore
	idx    *core.MemoryIndex
	spans  nodeSpans
	cat    catalog
	stmts  []stmt
	refs   []answer
}

func runScatter(ctx context.Context, r *run) error {
	data := filepath.Join(r.dir, "pristine")
	if err := masksearch.GenerateShardedDataset(data, r.spec(), 2); err != nil {
		return err
	}
	x := &scatter{r: r, spans: nodeSpans{epoch: time.Now()}}
	// References: local execution over the same sharded layout.
	ref, err := masksearch.OpenWith(data, masksearch.Options{EagerIndex: true, CacheBytes: masksearch.CacheUnbounded})
	if err != nil {
		return err
	}
	x.cat, err = newCatalog(ref.Entries())
	w, h := ref.MaskDims()
	if err == nil {
		x.stmts = exploreList(r.seed*100+11, x.cat, w, h, scatterStmts)
		x.refs, err = references(ctx, ref, x.stmts)
	}
	ref.Close()
	if err != nil {
		return err
	}

	mem := startMemPeak()
	defer mem.mib()
	setupS, teardown, err := repeatSetup(func(i int) (func(), error) {
		return x.setup(ctx, filepath.Join(r.dir, fmt.Sprint("db", i)), w, h)
	})
	if err != nil {
		return err
	}
	defer teardown()

	if !r.trace {
		p := x.phase(ctx, r.seconds, false)
		r.reportE2E(e2e{
			setupS: setupS, queries: p.queries, wall: p.wall, lat: &p.lat,
			loaded: p.loaded, loadedOver: p.loadedOver, maskBytes: w * h,
			indexRatio: float64(x.idx.SizeBytes()) / float64(int64(x.idx.Len())*int64(w*h)), mem: mem,
		})
		return nil
	}

	if err := probeLayers(ctx, r, x.stores[0].Dir(), x.db, x.cat.ids(), 0); err != nil {
		return err
	}
	rs0, pc0, ds0, ns0 := x.db.ReadStats(), x.db.PlanCacheStats(), x.db.DistStats(), x.nodeLoads()
	plain := x.phase(ctx, r.seconds/2, false)
	rs1, pc1, ds1, ns1 := x.db.ReadStats(), x.db.PlanCacheStats(), x.db.DistStats(), x.nodeLoads()
	q := float64(plain.queries)
	r.storeDeltas(rs1.Sub(rs0), plain.queries)
	r.set("masksearch.plan_cache_hit_ratio", "ratio", planHitRatio(pc0, pc1))
	r.set("dist.requests_per_query", "count", float64(ds1.Requests-ds0.Requests)/q)
	r.set("dist.kib_per_query", "KiB", float64(ds1.BytesSent+ds1.BytesRecv-ds0.BytesSent-ds0.BytesRecv)/1024/q)
	r.set("dist.tau_sent_per_query", "count", float64(ds1.TauSent-ds0.TauSent)/q)
	r.set("dist.hedges_per_query", "count", float64(ds1.Hedges-ds0.Hedges)/q)
	r.set("dist.retries", "count", float64(ds1.Retries-ds0.Retries))
	r.set("dist.remote_masks_per_query", "count", float64(ns1-ns0)/q)

	tp := x.phase(ctx, r.seconds/2, true)
	r.set("bench.trace_overhead_ratio", "ratio", tp.perClientQPS()/plain.perClientQPS())
	r.set("masksearch.self_ms", "ms", mean(tp.msSelf))
	r.set("dist.node_ms", "ms", mean(tp.nodeMs))
	r.set("dist.coord_self_ms", "ms", mean(tp.coordSelf))
	tp.layers.report(r)
	r.zeroLayers()
	return nil
}

// nodeLoads sums the masks the nodes' stores read from disk.
func (x *scatter) nodeLoads() int64 {
	var n int64
	for _, st := range x.stores {
		n += st.Stats().MasksLoaded
	}
	return n
}

// setup starts two nodes over a fresh copy of the sharded dataset,
// sharing one full CHI index, and opens the coordinator DB over them.
func (x *scatter) setup(ctx context.Context, dir string, w, h int) (func(), error) {
	var stop []func()
	teardown := func() {
		for i := len(stop) - 1; i >= 0; i-- {
			stop[i]()
		}
		os.RemoveAll(dir)
	}
	fail := func(err error) (func(), error) { teardown(); return nil, err }
	if err := copyTree(filepath.Join(x.r.dir, "pristine"), dir); err != nil {
		return fail(err)
	}
	x.stores = nil
	x.idx = core.NewMemoryIndex(indexConfig(w, h))
	topo := dist.Topology{}
	for i, name := range []string{"a", "b"} {
		st, cat, err := store.OpenAny(dir)
		if err != nil {
			return fail(err)
		}
		stop = append(stop, func() { st.Close() })
		x.stores = append(x.stores, st)
		if i == 0 {
			if _, err := core.IndexAll(ctx, st, x.idx, cat.MaskIDs(nil), core.ExecFor(0)); err != nil {
				return fail(err)
			}
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		n := dist.NewNode(name, st, cat, x.idx, 0, nil)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Serve(spanListener{lis, &x.spans})
		}()
		stop = append(stop, func() { n.Close(); lis.Close(); wg.Wait() })
		topo.Nodes = append(topo.Nodes, dist.NodeSpec{Name: name, Addr: lis.Addr().String()})
	}
	topo.Shards = []dist.ShardRoute{{Shard: 0, Nodes: []string{"a", "b"}}, {Shard: 1, Nodes: []string{"b", "a"}}}
	raw, err := json.Marshal(topo)
	if err != nil {
		return fail(err)
	}
	topoFile := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(topoFile, raw, 0o644); err != nil {
		return fail(err)
	}
	db, err := masksearch.OpenWith(dir, masksearch.Options{TopologyFile: topoFile})
	if err != nil {
		return fail(err)
	}
	x.db = db
	stop = append(stop, func() { db.Close() })
	return teardown, nil
}

// scatterPhase adds the coordinator's self time to phase.
type scatterPhase struct {
	*phase
	coordSelf []float64
	nodeMs    []float64
}

func (x *scatter) phase(ctx context.Context, d time.Duration, traced bool) *scatterPhase {
	p := &scatterPhase{phase: &phase{busy: make([]time.Duration, 1), done: make([]int64, 1)}}
	start := time.Now()
	x.spans.take(start)
	for i := 0; time.Since(start) < d; i++ {
		s, want := x.stmts[i%len(x.stmts)], x.refs[i%len(x.stmts)]
		sql, args := s.sql()
		t0 := time.Now()
		res, err := x.db.Query(ctx, sql, args...)
		t1 := time.Now()
		ok := err == nil && fromResult(res).equal(want)
		x.r.check(ok)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: scatter %q: err %v\n", sql, err)
			continue
		}
		p.lat.add(t1.Sub(t0))
		p.queries++
		p.busy[0] += t1.Sub(t0)
		p.done[0]++
		p.loaded += int64(res.Stats.Loaded)
		p.loadedOver++
		nodes := x.spans.take(t1)
		if traced {
			x.traceOne(ctx, p, s, want, t0, t1, nodes)
		}
	}
	p.wall = time.Since(start)
	return p
}

// traceOne records the query and its node spans, then pairs the query
// with a local core call over node a's store and an instrumented replay.
func (x *scatter) traceOne(ctx context.Context, p *scatterPhase, s stmt, want answer, t0, t1 time.Time, nodes [][2]time.Time) {
	tr := x.r.tr
	req := tr.add("masksearch.query", 0, 0, t0, t1)
	var ivs []interval
	for _, n := range nodes {
		tr.add("dist.node", req, req, n[0], n[1])
		ivs = append(ivs, interval{tr.ns(n[0]), tr.ns(n[1])})
		p.nodeMs = append(p.nodeMs, float64(n[1].Sub(n[0]).Nanoseconds())/1e6)
	}
	p.coordSelf = append(p.coordSelf, float64(t1.Sub(t0).Nanoseconds()-covered(tr.ns(t0), tr.ns(t1), ivs))/1e6)

	t2 := time.Now()
	got, _, err := replay(ctx, &core.Env{Loader: x.stores[0], Index: x.idx, Exec: core.ExecFor(0)}, x.cat, s)
	t3 := time.Now()
	tr.add("core.call", req, req, t2, t3)
	x.r.check(err == nil && got.equal(want))
	cc := &coreCall{tr: tr, req: req, spans: true}
	got, st, err := replay(ctx, cc.env(x.stores[0], x.idx, false, core.ExecFor(0)), x.cat, s)
	p.layers.add(cc.finish(req, t3, time.Now(), st))
	x.r.check(err == nil && got.equal(want))
	p.msSelf = append(p.msSelf, float64(t1.Sub(t0)-t3.Sub(t2))/1e6)
}
