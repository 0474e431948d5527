package core

import (
	"context"
	"fmt"
)

// MaskLoader materializes masks by id. *store.Store implements it; so
// do in-memory test loaders. Loaders must be safe for concurrent use:
// the parallel engine issues LoadMask calls from many goroutines.
type MaskLoader interface {
	LoadMask(id int64) (*Mask, error)
}

// MaskRecycler is optionally implemented by loaders that pool mask
// buffers. The engine releases a mask back to its loader once
// verification (including the OnVerify callback) is done with it, so
// OnVerify implementations must not retain the mask or its backing
// slices past their return.
type MaskRecycler interface {
	ReleaseMask(m *Mask)
}

// ShardedLoader is optionally implemented by loaders that spread
// masks across independent storage shards (*store.ShardedStore does).
// The parallel engine uses it to group load-heavy work by shard, so
// each shard's file and cache arena serve a dedicated worker slice
// instead of every worker funneling through one shard at a time.
type ShardedLoader interface {
	// NumShards reports the shard count (1 disables grouping).
	NumShards() int
	// ShardOf maps a mask id to its owning shard in [0, NumShards).
	ShardOf(id int64) int
}

// Index resolves the CHI of a mask, returning (nil, nil) when the mask
// is not indexed (the engine then falls back to verification). Index
// implementations must be safe for concurrent use.
type Index interface {
	ChiFor(id int64) (*CHI, error)
}

// Env wires an executor to its storage and index. OnVerify, when set,
// observes every mask loaded during verification; the incremental
// indexing mode (§3.6) points it at MemoryIndex.Observe so future
// queries benefit from work already paid for. Exec selects sequential
// or worker-pool execution; OnVerify may be called concurrently when
// the pool is enabled.
type Env struct {
	Loader   MaskLoader
	Index    Index
	OnVerify func(id int64, m *Mask)
	Exec     Exec
}

// verify loads one mask and computes every term exactly. The mask is
// recycled to the loader (when supported) before returning.
func (e *Env) verify(id int64, terms []CPTerm, st *Stats) ([]int64, error) {
	if e.Loader == nil {
		return nil, fmt.Errorf("core: no mask loader configured")
	}
	m, err := e.Loader.LoadMask(id)
	if err != nil {
		return nil, fmt.Errorf("verify mask %d: %w", id, err)
	}
	st.Loaded++
	vals := make([]int64, len(terms))
	for i, t := range terms {
		vals[i] = t.Eval(id, m)
	}
	if e.OnVerify != nil {
		e.OnVerify(id, m)
	}
	if r, ok := e.Loader.(MaskRecycler); ok {
		r.ReleaseMask(m)
	}
	return vals, nil
}

// chiFor looks up the CHI for id, tolerating a nil index.
func (e *Env) chiFor(id int64, st *Stats) (*CHI, error) {
	if e.Index == nil {
		return nil, nil
	}
	chi, err := e.Index.ChiFor(id)
	if err != nil {
		return nil, err
	}
	if chi != nil {
		st.IndexHits++
	}
	return chi, nil
}

// CheckCtx polls for cancellation every 256th iteration; executors
// and baselines share it so their ctx semantics cannot diverge.
func CheckCtx(ctx context.Context, i int) error {
	if i&255 == 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return nil
}

// decide resolves one target's filter decision from its CHI bounds,
// counting a decided target as accepted or rejected; Unknown defers it
// to verification. bs is a caller-owned scratch buffer of len(terms)
// bounds.
func (e *Env) decide(id int64, terms []CPTerm, pred Pred, bs []Bounds, st *Stats) (Tri, error) {
	decision := Unknown
	if len(terms) == 0 {
		decision = True // metadata-only predicate: nothing to bound or verify
	} else {
		chi, err := e.chiFor(id, st)
		if err != nil {
			return Unknown, err
		}
		if chi != nil {
			for t, term := range terms {
				bs[t] = term.BoundsFrom(chi, id)
			}
			decision = pred.FromBounds(bs)
		}
	}
	switch decision {
	case True:
		st.AcceptedByBounds++
	case False:
		st.RejectedByBounds++
	}
	return decision, nil
}

// filterTarget resolves one target: decide from CHI bounds when
// possible, otherwise load and verify.
func (e *Env) filterTarget(id int64, terms []CPTerm, pred Pred, bs []Bounds, st *Stats) (bool, error) {
	d, err := e.decide(id, terms, pred, bs, st)
	if err != nil || d != Unknown {
		return d == True, err
	}
	vals, err := e.verify(id, terms, st)
	if err != nil {
		return false, err
	}
	return pred.Eval(vals), nil
}

// FilterDecide resolves every target's filter decision — from CHI
// bounds when possible, by loading and verifying otherwise — and
// returns the per-target keep flags in target order. It is Filter
// without the id assembly, which is the shape a shard node needs (the
// coordinator reassembles ids so the global result order is the
// caller's target order). Decisions are independent per target, so
// sequential and worker-pool execution produce identical flags and
// stats.
func FilterDecide(ctx context.Context, env *Env, targets []int64, terms []CPTerm, pred Pred) ([]bool, Stats, error) {
	if pred == nil {
		pred = And{}
	}
	keep := make([]bool, len(targets))
	scratch := make([][]Bounds, env.Exec.workers())
	st, err := forEach(ctx, env, len(targets), func(i int) int64 { return targets[i] }, func(w int, st *Stats, i int) error {
		if scratch[w] == nil {
			scratch[w] = make([]Bounds, len(terms))
		}
		var err error
		keep[i], err = env.filterTarget(targets[i], terms, pred, scratch[w], st)
		return err
	})
	st.Targets = len(targets)
	if err != nil {
		return nil, st, err
	}
	return keep, st, nil
}

// Streaming chunk sizes: FilterEmit starts small so the first match
// surfaces after a handful of loads, then doubles the chunk so a
// consumer that drains the whole stream still amortizes per-chunk
// overhead (and keeps the worker pool busy on large inputs).
const (
	streamChunkMin = 32
	streamChunkMax = 1024
)

// FilterEmit is the streaming Filter: it scans targets in growing
// chunks — each chunk through the same sequential or worker-pool
// engine as Filter — and emits matching ids in target order as each
// chunk is decided. emit returns false to stop the scan; the tail's
// masks are then never loaded, which is what makes pagination-style
// consumers strictly cheaper than materializing the full result. A
// fully-consumed FilterEmit emits exactly Filter's ids in Filter's
// order; its Stats then equal Filter's, except that Targets counts
// only the scanned prefix when the consumer stops early.
func FilterEmit(ctx context.Context, env *Env, targets []int64, terms []CPTerm, pred Pred, emit func(id int64) bool) (Stats, error) {
	var st Stats
	chunk := streamChunkMin
	for off := 0; off < len(targets); {
		n := min(chunk, len(targets)-off)
		ids, cst, err := Filter(ctx, env, targets[off:off+n], terms, pred)
		st.Merge(cst)
		if err != nil {
			return st, err
		}
		for _, id := range ids {
			if !emit(id) {
				return st, nil
			}
		}
		off += n
		chunk = min(2*chunk, streamChunkMax)
	}
	return st, nil
}

// Filter returns the target ids whose term values satisfy pred, in
// target order. The filter stage decides as many masks as possible
// from CHI bounds; only masks the bounds cannot decide are loaded and
// verified exactly. With env.Exec configured for a worker pool the
// per-target work fans out across goroutines; results and stats are
// identical to the sequential engine.
func Filter(ctx context.Context, env *Env, targets []int64, terms []CPTerm, pred Pred) ([]int64, Stats, error) {
	keep, st, err := FilterDecide(ctx, env, targets, terms, pred)
	if err != nil {
		return nil, st, err
	}
	var out []int64
	for i, ok := range keep {
		if ok {
			out = append(out, targets[i])
		}
	}
	return out, st, nil
}
