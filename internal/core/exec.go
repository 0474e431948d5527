package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Exec selects the execution strategy for the engine's executors.
//
// The zero value runs the classic sequential engine. A positive
// Workers count fans the per-mask bounds and verification work out
// across that many goroutines; a negative count sizes the pool to
// runtime.GOMAXPROCS(0). Filter and AggTopK produce results and stats
// identical to the sequential engine under any worker count; TopK
// produces identical results, but its verification stage additionally
// refines τ as exact scores land, so it may skip loads the sequential
// engine performs (the skips are counted as RejectedByBounds).
type Exec struct {
	Workers int
}

// ExecFor maps a user-facing workers knob (as exposed by
// Options.Workers and the CLI -workers flags) to an execution
// strategy: 0 means GOMAXPROCS, 1 forces the sequential engine, any
// other count is used as-is.
func ExecFor(workers int) Exec {
	switch workers {
	case 0:
		return Exec{Workers: -1}
	case 1:
		return Exec{}
	default:
		return Exec{Workers: workers}
	}
}

// EffectiveWorkers reports the resolved pool size (1 means the
// sequential engine).
func (e Exec) EffectiveWorkers() int { return e.workers() }

// workers resolves the effective pool size.
func (e Exec) workers() int {
	switch {
	case e.Workers == 0:
		return 1
	case e.Workers < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return e.Workers
	}
}

// minParallelTargets is the smallest input for which spinning up the
// pool is worth the goroutine overhead.
const minParallelTargets = 16

// fanOut runs fn(worker, i) for every i in [0, n) across the given
// number of workers, handing out contiguous chunks from an atomic
// cursor. It returns the error of the lowest-indexed worker that
// failed (other workers stop at their next chunk boundary); ctx
// cancellation is polled per chunk.
func fanOut(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	chunk := int64(max(1, min(64, n/(workers*4))))
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				start := int(next.Add(chunk) - chunk)
				if start >= n {
					return
				}
				for i := start; i < min(start+int(chunk), n); i++ {
					if err := fn(w, i); err != nil {
						errs[w] = err
						failed.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardQueues partitions the work items [0, n) into per-shard index
// queues (original order preserved within each shard) when the loader
// is sharded. It returns nil — meaning "use the flat fanOut" — for
// unsharded or single-shard loaders and for inputs too small to
// matter.
func shardQueues(loader MaskLoader, n int, idOf func(i int) int64) [][]int {
	sl, ok := loader.(ShardedLoader)
	if !ok || n < minParallelTargets {
		return nil
	}
	s := sl.NumShards()
	if s <= 1 {
		return nil
	}
	queues := make([][]int, s)
	for i := 0; i < n; i++ {
		sh := sl.ShardOf(idOf(i))
		if sh < 0 || sh >= s {
			sh = 0
		}
		queues[sh] = append(queues[sh], i)
	}
	return queues
}

// fanOutLoads is fanOut for load-heavy stages: when the loader is
// sharded it hands out work shard by shard (fanOutSharded) so the
// shards' files and caches serve parallel worker slices; otherwise it
// falls back to the flat atomic-cursor fanOut. The per-item work is
// identical either way — only the visiting order changes — so any
// stage whose outcome is independent per item (every bounds and
// verification stage is: results land in caller-indexed slots) keeps
// byte-identical results and stats.
func fanOutLoads(ctx context.Context, loader MaskLoader, workers, n int, idOf func(i int) int64, fn func(worker, i int) error) error {
	if workers > 1 {
		if queues := shardQueues(loader, n, idOf); queues != nil {
			return fanOutSharded(ctx, workers, n, queues, fn)
		}
	}
	return fanOut(ctx, workers, n, fn)
}

// fanOutSharded runs fn(worker, i) for every index queued in queues,
// giving each worker a home shard (worker w starts on shard w mod S)
// and letting it steal chunks from the next shard once its own
// drains. Up to min(workers, S) shards are read concurrently, and a
// worker stays on one shard while it has work — the locality the
// per-shard caches and file descriptors want. Error and cancellation
// semantics match fanOut: the lowest-indexed failed worker's error is
// returned and ctx is polled per chunk.
func fanOutSharded(ctx context.Context, workers, n int, queues [][]int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	s := len(queues)
	chunks := make([]int64, s)
	for qi, q := range queues {
		// Size chunks so each shard's queue still splits across the
		// workers that may end up serving it.
		chunks[qi] = int64(max(1, min(64, len(q)/(workers*2))))
	}
	cursors := make([]atomic.Int64, s)
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			home := w % s
			for {
				if failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				worked := false
				for k := range s {
					qi := (home + k) % s
					q := queues[qi]
					if cursors[qi].Load() >= int64(len(q)) {
						continue
					}
					start := cursors[qi].Add(chunks[qi]) - chunks[qi]
					if start >= int64(len(q)) {
						continue
					}
					for i := start; i < min(start+chunks[qi], int64(len(q))); i++ {
						if err := fn(w, q[i]); err != nil {
							errs[w] = err
							failed.Store(true)
							return
						}
					}
					worked = true
					break
				}
				if !worked {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach runs fn(w, st, i) for every i in [0, n) and returns the sum
// of the Stats fn accumulated. With one worker, or below
// minParallelTargets, it is a plain loop polling ctx every 256th item
// (w is 0 and st the result itself); otherwise it fans the items across
// env.Exec's pool, by shard when idOf is non-nil (the stage loads
// masks) and the loader is sharded, giving each worker w its own st.
// Every stage whose outcome is independent per item lands results in
// caller-indexed slots, so both paths produce identical results.
func forEach(ctx context.Context, env *Env, n int, idOf func(i int) int64, fn func(w int, st *Stats, i int) error) (Stats, error) {
	var st Stats
	w := env.Exec.workers()
	if w <= 1 || n < minParallelTargets {
		for i := range n {
			if err := CheckCtx(ctx, i); err != nil {
				return st, err
			}
			if err := fn(0, &st, i); err != nil {
				return st, err
			}
		}
		return st, nil
	}
	ws := make([]Stats, w)
	run := func(wk, i int) error { return fn(wk, &ws[wk], i) }
	var err error
	if idOf != nil {
		err = fanOutLoads(ctx, env.Loader, w, n, idOf, run)
	} else {
		err = fanOut(ctx, w, n, run)
	}
	for i := range ws {
		st.Merge(ws[i])
	}
	return st, err
}

// IndexAll builds a CHI for every listed mask not yet present in ix,
// fanning mask loads and LUT builds across the pool. It returns how
// many masks were newly indexed. This is the eager ("vanilla
// MaskSearch") construction path; the incremental mode instead grows
// the index one Observe at a time.
func IndexAll(ctx context.Context, loader MaskLoader, ix *MemoryIndex, ids []int64, ex Exec) (int, error) {
	var built atomic.Int64
	env := &Env{Loader: loader, Exec: ex}
	_, err := forEach(ctx, env, len(ids), func(i int) int64 { return ids[i] }, func(_ int, _ *Stats, i int) error {
		id := ids[i]
		if chi, err := ix.ChiFor(id); err != nil {
			return err
		} else if chi != nil {
			return nil
		}
		m, err := loader.LoadMask(id)
		if err != nil {
			return err
		}
		chi, err := Build(m, ix.Config())
		if r, ok := loader.(MaskRecycler); ok {
			r.ReleaseMask(m)
		}
		if err != nil {
			return err
		}
		ix.Add(id, chi)
		built.Add(1)
		return nil
	})
	return int(built.Load()), err
}
