package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"masksearch/internal/core"
)

// sortBestFirst orders verify items by guaranteed strength — largest
// lower bound first for Desc, smallest upper bound first for Asc —
// with ids breaking ties so the order (and thus the byte stream) is
// deterministic. gidx rides along so gather indexes stay attached.
func sortBestFirst(items []core.VerifyItem, gidx []int, ord core.Order) {
	sort.Sort(&bestFirst{items: items, gidx: gidx, ord: ord})
}

type bestFirst struct {
	items []core.VerifyItem
	gidx  []int
	ord   core.Order
}

func (b *bestFirst) Len() int { return len(b.items) }
func (b *bestFirst) Swap(i, j int) {
	b.items[i], b.items[j] = b.items[j], b.items[i]
	b.gidx[i], b.gidx[j] = b.gidx[j], b.gidx[i]
}
func (b *bestFirst) Less(i, j int) bool {
	x, y := &b.items[i], &b.items[j]
	if b.ord == core.Desc {
		if x.B.Lo != y.B.Lo {
			return x.B.Lo > y.B.Lo
		}
	} else if x.B.Hi != y.B.Hi {
		return x.B.Hi < y.B.Hi
	}
	return x.ID < y.ID
}

// This file holds the coordinator's query operations. TopK and AggTopK
// are core's one pipeline (core.RankTopK, core.RankAgg) run on the
// scatter backend below: remote bounds and remote verification, with
// the τ exchange, best-first ordering, hedging and the partial-result
// policy kept inside the backend. Pruning and skipping are sound (a
// dropped candidate provably cannot place), and the pipeline's ledger
// keeps each candidate's first landing only, so no matter which node
// verified which candidate, which τ updates landed in time, or whether
// a hedged or failover attempt answered, the surviving exact scores
// and the final sorted ranking are identical to single-node execution.
// Stats are merged from node responses; like the local worker pool,
// the verification stage's load counts may differ run to run (τ
// races), never the results.

// Filter runs the distributed filter stage: targets are partitioned by
// shard, every shard's keep-flags are computed remotely (FilterDecide)
// and the matching ids reassemble in target order. part selects the
// partial-result policy (nil fails closed).
func (c *Coordinator) Filter(ctx context.Context, targets []int64, terms []core.CPTerm, pred core.Pred, part *Partial) ([]int64, core.Stats, error) {
	var st core.Stats
	wterms, err := toWireTerms(terms)
	if err != nil {
		return nil, st, err
	}
	wpred, err := toWirePred(pred)
	if err != nil {
		return nil, st, err
	}
	byShard, srcIdx := c.partition(targets)
	keep := make([]bool, len(targets))
	covered := make([]bool, len(targets))
	var mu sync.Mutex
	errs := make([]error, c.nshards)
	var wg sync.WaitGroup
	for s := range byShard {
		if len(byShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ids, src := byShard[s], srcIdx[s]
			errs[s] = c.runAttempts(ctx, kindFilter, s, func(actx context.Context, node NodeSpec) (func(), error) {
				var res filterRes
				req := filterReq{IDs: ids, Terms: wterms, Pred: wpred, DeadlineMS: deadlineMS(actx)}
				if err := c.roundTrip(actx, kindFilter, node, ftFilter, req, ftFilterRes, &res); err != nil {
					return nil, err
				}
				if len(res.Keep) != len(ids) {
					return nil, fmt.Errorf("dist: node %s answered %d filter decisions for %d ids", node.Name, len(res.Keep), len(ids))
				}
				return func() {
					mu.Lock()
					st.Merge(res.Stats)
					for j, k := range res.Keep {
						keep[src[j]] = k
						covered[src[j]] = true
					}
					mu.Unlock()
					c.foldReads(res.Node)
				}, nil
			})
		}(s)
	}
	wg.Wait()
	if err := resolve(errs, part); err != nil {
		return nil, st, err
	}
	var out []int64
	for i, id := range targets {
		if covered[i] && keep[i] {
			out = append(out, id)
		}
	}
	return out, st, nil
}

// boundsScatter runs the remote bounds stage over targets, returning
// per-target candidate bounds and coverage flags (false = the target's
// shard went missing under the degraded policy).
func (c *Coordinator) boundsScatter(ctx context.Context, targets []int64, term wireTerm, st *core.Stats, part *Partial) ([]core.CandBound, []bool, error) {
	byShard, srcIdx := c.partition(targets)
	cands := make([]core.CandBound, len(targets))
	covered := make([]bool, len(targets))
	var mu sync.Mutex
	errs := make([]error, c.nshards)
	var wg sync.WaitGroup
	for s := range byShard {
		if len(byShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ids, src := byShard[s], srcIdx[s]
			errs[s] = c.runAttempts(ctx, kindBounds, s, func(actx context.Context, node NodeSpec) (func(), error) {
				var res boundsRes
				req := boundsReq{IDs: ids, Term: term, DeadlineMS: deadlineMS(actx)}
				if err := c.roundTrip(actx, kindBounds, node, ftBounds, req, ftBoundsRes, &res); err != nil {
					return nil, err
				}
				if len(res.Cands) != len(ids) {
					return nil, fmt.Errorf("dist: node %s answered %d bounds for %d ids", node.Name, len(res.Cands), len(ids))
				}
				return func() {
					mu.Lock()
					st.Merge(res.Stats)
					for j, cb := range res.Cands {
						cands[src[j]] = cb
						covered[src[j]] = true
					}
					mu.Unlock()
					c.foldReads(res.Node)
				}, nil
			})
		}(s)
	}
	wg.Wait()
	if err := resolve(errs, part); err != nil {
		return nil, nil, err
	}
	return cands, covered, nil
}

// stages is the scatter backend of core's ranking pipeline for one
// query: bounds and verification run on the shards' nodes.
func (c *Coordinator) stages(terms []core.CPTerm, score core.Term, ord core.Order, part *Partial) (core.Stages, error) {
	if err := core.CheckScore(terms, score); err != nil {
		return core.Stages{}, err
	}
	wterms, err := toWireTerms(terms)
	if err != nil {
		return core.Stages{}, err
	}
	return core.Stages{
		Bounds: func(ctx context.Context, targets []int64, st *core.Stats) ([]core.CandBound, []bool, error) {
			return c.boundsScatter(ctx, targets, wterms[score], st, part)
		},
		Verify: func(ctx context.Context, items []core.VerifyItem, gate *core.Tau, land func(int, int64), st *core.Stats) error {
			return c.verifyScatter(ctx, items, wterms, score, ord, gate, land, st, part)
		},
	}, nil
}

// TopK runs core's TopK pipeline on the scatter backend, τ-gated with
// exchange unless NoTauExchange is set.
func (c *Coordinator) TopK(ctx context.Context, targets []int64, terms []core.CPTerm, score core.Term, k int, ord core.Order, part *Partial) ([]core.Scored, core.Stats, error) {
	s, err := c.stages(terms, score, ord, part)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return core.RankTopK(ctx, s, targets, k, ord, !c.opts.NoTauExchange)
}

// AggTopK runs core's AggTopK pipeline on the scatter backend. Under
// the degraded policy a group loses its whole result if any member's
// shard is missing.
func (c *Coordinator) AggTopK(ctx context.Context, groups []core.Group, terms []core.CPTerm, score core.Term, agg core.Agg, k int, ord core.Order, part *Partial) ([]core.Scored, core.Stats, error) {
	s, err := c.stages(terms, score, ord, part)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return core.RankAgg(ctx, s, groups, agg, k, ord)
}

// verifyScatter ships verification items to their shards, landing
// exact scores (land(i, score) for items[i]) as they stream in. A
// gated scatter carries the τ exchange: items go out best-first, each
// connection is seeded with the gate's current τ and receives pushes
// as later landings tighten it.
func (c *Coordinator) verifyScatter(ctx context.Context, items []core.VerifyItem, wterms []wireTerm, score core.Term, ord core.Order, gate *core.Tau, land func(int, int64), st *core.Stats, part *Partial) error {
	gidx := make([]int, len(items))
	for i := range gidx {
		gidx[i] = i
	}
	if gate != nil {
		items = slices.Clone(items)
		// Best-first: each shard verifies its strongest candidates (by
		// guaranteed score) before its long tail, so the first landed
		// chunks push τ near its final value while the tail is still
		// unloaded — that is where the exchange's skips come from.
		// Ordering never changes the answer: scores land by item index
		// and only provably-unplaceable candidates are skipped.
		sortBestFirst(items, gidx, ord)
	}
	g := &gather{gate: gate, score: score, land: func(i int, s int64) { land(gidx[i], s) },
		subs: make(map[chan struct{}]bool), st: st}
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	byShard, srcIdx := c.partition(ids)
	errs := make([]error, c.nshards)
	var wg sync.WaitGroup
	for s := range byShard {
		if len(byShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := srcIdx[s]
			shardItems := make([]core.VerifyItem, len(src))
			for j, i := range src {
				shardItems[j] = items[i]
			}
			errs[s] = c.runAttempts(ctx, kindVerify, s, func(actx context.Context, node NodeSpec) (func(), error) {
				return c.verifyAttempt(actx, node, shardItems, src, wterms, ord, g)
			})
		}(s)
	}
	wg.Wait()
	return resolve(errs, part)
}

// gather is one verify scatter's shared state across every node and
// attempt: where scores land, the τ gate, the subscriptions of the
// per-connection τ pushers it wakes on every landing, and the query
// stats the winning attempts fold into.
type gather struct {
	gate  *core.Tau // nil: ungated
	score core.Term
	land  func(i int, score int64)

	mu   sync.Mutex
	subs map[chan struct{}]bool
	st   *core.Stats
}

func (g *gather) wake() {
	g.mu.Lock()
	for ch := range g.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	g.mu.Unlock()
}

func (g *gather) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	g.mu.Lock()
	g.subs[ch] = true
	g.mu.Unlock()
	return ch
}

func (g *gather) unsubscribe(ch chan struct{}) {
	g.mu.Lock()
	delete(g.subs, ch)
	g.mu.Unlock()
}

// verifyAttempt is one node's streaming verify exchange: write the
// request, push τ updates as the gate tightens, land score chunks as
// they arrive, finish on the terminal frame. Scores land immediately
// (not in the commit) because τ exchange requires them mid-flight; the
// pipeline's ledger keeps only each item's first landing, which keeps
// concurrent hedged attempts sound. The commit only folds the response
// stats, so a losing attempt never double-counts them. items[j] is
// scatter item l2g[j].
func (c *Coordinator) verifyAttempt(ctx context.Context, node NodeSpec, items []core.VerifyItem, l2g []int, wterms []wireTerm, ord core.Order, g *gather) (func(), error) {
	conn, err := c.dial(ctx, node)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := watchCancel(ctx, conn)
	defer stop()

	gated := g.gate != nil
	req := verifyReq{Items: items, Terms: wterms, Ord: ord, Gated: gated, DeadlineMS: deadlineMS(ctx)}
	if gated {
		if tau, ok := g.gate.Threshold(); ok {
			req.Tau = &tau
		}
	}
	sz, err := writeMsg(conn, ftVerify, req)
	c.bytesSent.Add(int64(sz))
	if err != nil {
		return nil, err
	}

	// τ pusher: the sole writer on this connection after the request.
	// It wakes on every landing anywhere in the cluster and forwards
	// the gate's τ when it changed. A push failure stops pushing but
	// not the attempt — the node just stops skipping.
	if gated {
		sub := g.subscribe()
		defer g.unsubscribe(sub)
		pusherDone := make(chan struct{})
		defer close(pusherDone)
		go func() {
			var lastSent int64
			haveSent := false
			if req.Tau != nil {
				lastSent, haveSent = *req.Tau, true
			}
			for {
				select {
				case <-pusherDone:
					return
				case <-sub:
				}
				tau, ok := g.gate.Threshold()
				if !ok || (haveSent && tau == lastSent) {
					continue
				}
				n, werr := writeMsg(conn, ftTau, tauUpdate{Tau: tau})
				c.bytesSent.Add(int64(n))
				if werr != nil {
					return
				}
				c.nTauSent.Add(1)
				lastSent, haveSent = tau, true
			}
		}()
	}

	for {
		typ, payload, n, err := ReadFrame(conn, 0)
		c.bytesRecv.Add(int64(n))
		if err != nil {
			return nil, err
		}
		switch typ {
		case ftScores:
			var chunk scoreChunk
			if err := json.Unmarshal(payload, &chunk); err != nil {
				return nil, fmt.Errorf("dist: decode score chunk: %w", err)
			}
			if len(chunk.Vals) != len(chunk.Idx) {
				return nil, fmt.Errorf("dist: node %s streamed %d score rows for %d indexes", node.Name, len(chunk.Vals), len(chunk.Idx))
			}
			for j, li := range chunk.Idx {
				if li < 0 || li >= len(l2g) || int(g.score) >= len(chunk.Vals[j]) {
					return nil, fmt.Errorf("dist: node %s streamed an out-of-range score entry", node.Name)
				}
				g.land(l2g[li], chunk.Vals[j][g.score])
			}
			if gated {
				g.wake()
			}
		case ftVerifyRes:
			var res verifyRes
			if err := json.Unmarshal(payload, &res); err != nil {
				return nil, fmt.Errorf("dist: decode verify result: %w", err)
			}
			return func() {
				g.mu.Lock()
				g.st.Merge(res.Stats)
				g.mu.Unlock()
				c.foldReads(res.Node)
			}, nil
		case ftError:
			var we wireError
			if err := json.Unmarshal(payload, &we); err != nil {
				return nil, fmt.Errorf("dist: decode error frame: %w", err)
			}
			return nil, &errRemote{msg: we.Msg}
		default:
			return nil, fmt.Errorf("dist: unexpected frame type 0x%02x in verify stream", typ)
		}
	}
}
