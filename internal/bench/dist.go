package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"masksearch"
	"masksearch/internal/core"
	"masksearch/internal/dist"
	"masksearch/internal/store"
	"masksearch/internal/workload"
)

// DistRow is one machine-readable measurement of the distributed
// experiment: one workload phase through the scatter-gather
// coordinator against in-process shard nodes. The rows feed
// BENCH_dist.json.
type DistRow struct {
	Exp         string  `json:"exp"`
	Dataset     string  `json:"dataset"`
	Mode        string  `json:"mode"`
	Queries     int     `json:"queries"`
	QPS         float64 `json:"qps"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	RemoteMasks int64   `json:"remote_masks"`
	BytesSent   int64   `json:"bytes_sent"`
	BytesRecv   int64   `json:"bytes_recv"`
	TauSent     int64   `json:"tau_sent"`
	Hedges      int64   `json:"hedges"`
	Failovers   int64   `json:"failovers"`
	Failed      int     `json:"failed"`
	Identical   bool    `json:"identical"`
}

// DistReport carries the rendered table plus the JSON rows.
type DistReport struct {
	*Report
	Rows []DistRow
}

// distPair is one statement with its locally computed reference result.
type distPair struct {
	sql        string
	wantIDs    []int64
	wantRanked []masksearch.Scored
}

// distCluster is a set of in-process shard nodes over one dataset dir,
// sharing a pre-built full CHI index so every phase sees identical
// bounds (the index is complete, so nothing grows mid-run and no phase
// is advantaged by a warmer predecessor).
type distCluster struct {
	nodes  map[string]*dist.Node
	addrs  map[string]string
	stores []store.MaskStore
}

func startDistCluster(dir string, idx *core.MemoryIndex, thr store.Throttle, names []string) (*distCluster, error) {
	c := &distCluster{nodes: map[string]*dist.Node{}, addrs: map[string]string{}}
	for _, name := range names {
		st, cat, err := store.OpenAny(dir)
		if err != nil {
			c.close()
			return nil, err
		}
		st.SetThrottle(thr)
		c.stores = append(c.stores, st)
		n := dist.NewNode(name, st, cat, idx, 0, nil)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		go n.Serve(lis)
		c.nodes[name] = n
		c.addrs[name] = lis.Addr().String()
	}
	return c, nil
}

func (c *distCluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
}

// topologyFile writes a temporary topology routing each shard to the
// named nodes (first = primary); the caller removes it.
func (c *distCluster) topologyFile(routes [][]string) (string, error) {
	topo := dist.Topology{}
	for name, addr := range c.addrs {
		topo.Nodes = append(topo.Nodes, dist.NodeSpec{Name: name, Addr: addr})
	}
	for s, names := range routes {
		topo.Shards = append(topo.Shards, dist.ShardRoute{Shard: s, Nodes: names})
	}
	f, err := os.CreateTemp("", "msbench-topo-*.json")
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(topo); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// Dist benchmarks the distributed scatter-gather path end to end on a
// 2-shard layout of the dataset, against two in-process shard nodes on
// loopback TCP:
//
//	dist-filter / dist-topk — the workload through a topology-backed
//	       DB, every result asserted byte-identical to the same
//	       statement on a plain local DB over the same dataset; QPS,
//	       p50/p99 and protocol bytes moved are recorded.
//	tau-baseline / tau-exchange — the ranked workload with τ exchange
//	       off, then on, each against freshly started nodes; the
//	       exchange run must load strictly fewer remote masks
//	       (asserted) — the coordinator's τ pushes let nodes skip
//	       loads a τ-blind node performs.
//	failover — replicated routes; the primary node for every shard is
//	       killed halfway through the run. Zero failed queries and
//	       byte-identical results are asserted, and the coordinator
//	       must record failovers.
func Dist(ctx context.Context, d *DatasetEnv, dataDir string, thr store.Throttle, n int, seed int64) (*DistReport, error) {
	// The shard nodes run under a simulated disk (default: the paper's
	// 125 MiB/s EBS volume, overridden by -throttle-mibps). On an
	// unthrottled tmpfs a node verifies its whole candidate list
	// before the first τ push can round-trip the loopback, so the
	// exchange — a mechanism for I/O-bound verification — would
	// measure as a no-op.
	if thr == (store.Throttle{}) {
		thr = store.Throttle{BytesPerSec: 125 * (1 << 20)}
	}
	rep := &DistReport{Report: NewReport(fmt.Sprintf(
		"Dist — scatter-gather over 2 remote shard nodes on %s (%d queries per phase)", d.Params.Name, n))}
	rep.Printf("%-14s %8s %10s %12s %12s %12s %10s %8s %9s %6s\n",
		"mode", "queries", "qps", "p50", "p99", "remote masks", "bytes out", "tau", "failover", "failed")
	row := func(r DistRow) {
		rep.Rows = append(rep.Rows, r)
		rep.Printf("%-14s %8d %10.1f %12s %12s %12d %10d %8d %9d %6d\n",
			r.Mode, r.Queries, r.QPS,
			time.Duration(r.P50Ns).Round(time.Microsecond),
			time.Duration(r.P99Ns).Round(time.Microsecond),
			r.RemoteMasks, r.BytesSent, r.TauSent, r.Failovers, r.Failed)
	}

	// A 2-shard layout of the same logical dataset, generated (and
	// reused) next to the flat one — same pixels, so the shared eager
	// CHI index applies unchanged.
	dir := filepath.Join(dataDir, fmt.Sprintf("%s-s2", d.Params.Name))
	man, err := store.LoadManifest(dir)
	if err != nil || !sameSpec(man.Spec, d.Params) || len(man.Shards) != 2 || man.GenVersion != store.GenVersion {
		if err := store.GenerateSharded(dir, d.Params, 2); err != nil {
			return nil, fmt.Errorf("bench: generate 2-shard %s: %w", d.Params.Name, err)
		}
	}
	// Nodes share one fully built fine-grained index (LargeConfig):
	// τ-gating can only skip a load whose upper bound is already known
	// and below τ, so the experiment needs tight bounds — with the
	// coarse index the bounds rarely drop under the exact threshold
	// and the exchange has nothing to prune. The index never changes
	// results, only load counts, and sharing one complete index across
	// nodes and phases keeps every phase's bounds identical.
	idx, err := d.Index(d.LargeConfig())
	if err != nil {
		return nil, err
	}

	// Local reference over the same sharded dir: the identity oracle.
	ref, err := masksearch.OpenWith(dir, masksearch.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer ref.Close()

	rng := rand.New(rand.NewSource(seed))
	ids := d.Cat.MaskIDs(nil)
	w, h := d.Params.W, d.Params.H
	var filters, topks []distPair
	for i := 0; i < n; i++ {
		fq := workload.RandomFilter(rng, d.Cat, w, h, ids)
		fsql := fq.LiteralSQL()
		fres, err := ref.Query(ctx, fsql)
		if err != nil {
			return nil, fmt.Errorf("bench: dist reference: %w", err)
		}
		filters = append(filters, distPair{sql: fsql, wantIDs: fres.IDs})

		tq := workload.RandomTopK(rng, w, h, ids)
		tsql := tq.LiteralSQL()
		tres, err := ref.Query(ctx, tsql)
		if err != nil {
			return nil, fmt.Errorf("bench: dist reference: %w", err)
		}
		topks = append(topks, distPair{sql: tsql, wantRanked: tres.Ranked})
	}

	// runPhase opens a fresh cluster + coordinator, runs the pairs
	// sequentially, asserts identity, and reports one row. kill, when
	// non-nil, is invoked after half the queries.
	runPhase := func(mode string, pairs []distPair, routes [][]string, opts masksearch.DistOptions, kill func(c *distCluster)) (*DistRow, error) {
		cluster, err := startDistCluster(dir, idx, thr, []string{"a", "b"})
		if err != nil {
			return nil, err
		}
		defer cluster.close()
		topoPath, err := cluster.topologyFile(routes)
		if err != nil {
			return nil, err
		}
		defer os.Remove(topoPath)
		db, err := masksearch.OpenWith(dir, masksearch.Options{TopologyFile: topoPath, Dist: opts})
		if err != nil {
			return nil, err
		}
		defer db.Close()

		var lats []time.Duration
		identical := true
		failed := 0
		wallStart := time.Now()
		for i, p := range pairs {
			if kill != nil && i == len(pairs)/2 {
				kill(cluster)
			}
			t0 := time.Now()
			res, err := db.Query(ctx, p.sql)
			lats = append(lats, time.Since(t0))
			if err != nil {
				failed++
				continue
			}
			if !equalIDs(res.IDs, p.wantIDs) || !reflect.DeepEqual(res.Ranked, p.wantRanked) {
				identical = false
			}
		}
		wall := time.Since(wallStart)
		var remote int64
		for _, rs := range db.RemoteShardStats() {
			remote += rs.MasksLoaded
		}
		ds := db.DistStats()
		p50, p99 := quantilesNs(lats)
		return &DistRow{
			Exp: "dist", Dataset: d.Params.Name, Mode: mode, Queries: len(pairs),
			QPS: float64(len(pairs)) / wall.Seconds(), P50Ns: p50, P99Ns: p99,
			RemoteMasks: remote, BytesSent: ds.BytesSent, BytesRecv: ds.BytesRecv,
			TauSent: ds.TauSent, Hedges: ds.Hedges, Failovers: ds.Failovers,
			Failed: failed, Identical: identical,
		}, nil
	}
	oneEach := [][]string{{"a"}, {"b"}}

	// Phase 1 — throughput and identity per plan family.
	for _, ph := range []struct {
		mode  string
		pairs []distPair
	}{{"dist-filter", filters}, {"dist-topk", topks}} {
		r, err := runPhase(ph.mode, ph.pairs, oneEach, masksearch.DistOptions{}, nil)
		if err != nil {
			return nil, err
		}
		row(*r)
		if !r.Identical || r.Failed > 0 {
			return nil, fmt.Errorf("bench: dist %s: %d failures, identical=%v — distributed results must match local execution",
				ph.mode, r.Failed, r.Identical)
		}
	}

	// Phase 2 — τ-exchange effectiveness on the ranked workload. Both
	// runs see identical clusters (fresh nodes, same complete index);
	// only the exchange differs, so the load delta is pure τ pruning.
	base, err := runPhase("tau-baseline", topks, oneEach, masksearch.DistOptions{NoTauExchange: true}, nil)
	if err != nil {
		return nil, err
	}
	row(*base)
	exch, err := runPhase("tau-exchange", topks, oneEach, masksearch.DistOptions{}, nil)
	if err != nil {
		return nil, err
	}
	row(*exch)
	if !base.Identical || !exch.Identical || base.Failed > 0 || exch.Failed > 0 {
		return nil, fmt.Errorf("bench: dist tau phases: results diverged or failed")
	}
	if exch.RemoteMasks >= base.RemoteMasks {
		return nil, fmt.Errorf("bench: dist: τ exchange loaded %d remote masks, no-exchange baseline %d — exchange must prune remote loads",
			exch.RemoteMasks, base.RemoteMasks)
	}
	rep.Printf("τ exchange pruned %d of %d remote mask loads (%.1f%%)\n",
		base.RemoteMasks-exch.RemoteMasks, base.RemoteMasks,
		100*float64(base.RemoteMasks-exch.RemoteMasks)/float64(base.RemoteMasks))

	// Phase 3 — failover: both shards primary on a, replicated on b;
	// a dies halfway. Every query must still answer identically.
	fo, err := runPhase("failover", append(append([]distPair{}, filters...), topks...),
		[][]string{{"a", "b"}, {"a", "b"}},
		masksearch.DistOptions{HedgeAfter: -1, DialTimeout: 2 * time.Second},
		func(c *distCluster) { c.nodes["a"].Close() })
	if err != nil {
		return nil, err
	}
	row(*fo)
	if fo.Failed > 0 || !fo.Identical {
		return nil, fmt.Errorf("bench: dist failover: %d failed queries, identical=%v — replica failover must be lossless",
			fo.Failed, fo.Identical)
	}
	if fo.Failovers == 0 {
		return nil, fmt.Errorf("bench: dist failover: coordinator recorded no failovers after the primary died")
	}
	return rep, nil
}
