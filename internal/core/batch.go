package core

import (
	"context"
	"fmt"
	"slices"
)

// BatchKind selects the executor a BatchQuery runs through.
type BatchKind int

const (
	BatchFilter BatchKind = iota
	BatchTopK
	BatchAgg
)

func (k BatchKind) String() string {
	switch k {
	case BatchFilter:
		return "filter"
	case BatchTopK:
		return "topk"
	case BatchAgg:
		return "aggregation"
	}
	return "?"
}

// BatchQuery is one query of an ExecBatch workload, the union of the
// three executors' inputs. Targets feeds BatchFilter and BatchTopK;
// Groups feeds BatchAgg. K <= 0 means "all" for the ranking kinds,
// matching TopK and AggTopK.
type BatchQuery struct {
	Kind    BatchKind
	Targets []int64
	Groups  []Group
	Terms   []CPTerm
	Pred    Pred  // BatchFilter; nil means "always true"
	Score   Term  // BatchTopK, BatchAgg
	Agg     Agg   // BatchAgg
	K       int   // BatchTopK, BatchAgg
	Order   Order // BatchTopK, BatchAgg
}

// BatchResult is the answer to one BatchQuery: IDs for BatchFilter,
// Ranked for the ranking kinds, plus the query's own pipeline stats.
type BatchResult struct {
	IDs    []int64
	Ranked []Scored
	Stats  Stats
}

// bqState carries one query through the batch pipeline.
type bqState struct {
	q    BatchQuery
	pred Pred
	st   Stats
	// BatchFilter: per-target outcome and which targets the bounds
	// could not decide.
	keep  []bool
	undec []bool
	// Ranking kinds: the bound targets (TopK's targets, or AggTopK's
	// group members), their bounds, and the pruned ranking.
	targets []int64
	cands   []CandBound
	rank    *ranking
}

// consumer is one query's interest in one mask load: qi names the
// query and i the target index (BatchFilter) or verify item index
// (ranking kinds).
type consumer struct {
	qi, i int
}

// ExecBatch executes a multi-query workload (§4.5) as one scheduled
// batch. It first resolves every query's bounds stage from the index,
// then groups the surviving verification work by mask: each distinct
// mask the batch needs is loaded from the store once and fanned out to
// every interested query, instead of once per query. Loads and bounds
// work run on env.Exec's worker pool; the bounds, pruning and ranking
// are the standalone executors' own (decide, boundCand, rankTopK,
// rankAgg), only the verification stage is the batch's.
//
// Results are byte-identical to running each query alone through
// Filter, TopK and AggTopK — bounds decisions are per query and exact
// evaluation of a shared mask returns the same values as a private
// load. Per-query Stats match the standalone sequential engine for
// BatchFilter and BatchAgg; BatchTopK additionally refines each
// query's τ as exact scores land (like the parallel engine), so its
// verification stage may skip masks the standalone engine loads, with
// Loaded + RejectedByBounds conserved. Stats.Loaded counts the masks a
// query evaluated exactly, whether or not the physical load was
// shared; the store's ReadStats count the physical loads.
func ExecBatch(ctx context.Context, env *Env, queries []BatchQuery) ([]BatchResult, error) {
	states := make([]bqState, len(queries))
	maxTerms := 1
	type unit struct{ qi, i int }
	var units []unit
	for qi := range queries {
		s := &states[qi]
		s.q = queries[qi]
		maxTerms = max(maxTerms, len(s.q.Terms))
		switch s.q.Kind {
		case BatchFilter:
			s.pred = s.q.Pred
			if s.pred == nil {
				s.pred = And{}
			}
			s.targets = s.q.Targets
			s.keep = make([]bool, len(s.targets))
			s.undec = make([]bool, len(s.targets))
		case BatchTopK, BatchAgg:
			if err := CheckScore(s.q.Terms, s.q.Score); err != nil {
				return nil, fmt.Errorf("core: batch query %d: %w", qi, err)
			}
			s.targets = s.q.Targets
			if s.q.Kind == BatchAgg {
				s.targets = groupMembers(s.q.Groups)
			}
			s.cands = make([]CandBound, len(s.targets))
		default:
			return nil, fmt.Errorf("core: batch query %d: unknown kind %v", qi, s.q.Kind)
		}
		s.st.Targets = len(s.targets)
		for i := range s.targets {
			units = append(units, unit{qi, i})
		}
	}

	workers := env.Exec.workers()
	wstats := make([][]Stats, workers)
	scratch := make([][]Bounds, workers)
	for w := range workers {
		wstats[w] = make([]Stats, len(queries))
		scratch[w] = make([]Bounds, maxTerms)
	}
	mergeWorkerStats := func() {
		for w := range wstats {
			for qi := range wstats[w] {
				states[qi].st.Merge(wstats[w][qi])
			}
			wstats[w] = make([]Stats, len(queries))
		}
	}

	// Stage 1: every query's bounds, fanned out over the flat
	// (query, item) work list. Decisions are per query and independent
	// per item, so this matches each standalone bounds stage exactly.
	_, err := forEach(ctx, env, len(units), nil, func(w int, _ *Stats, ui int) error {
		u := units[ui]
		s := &states[u.qi]
		st := &wstats[w][u.qi]
		id := s.targets[u.i]
		if s.q.Kind != BatchFilter {
			var err error
			s.cands[u.i], err = env.boundCand(id, s.q.Terms[s.q.Score], st)
			return err
		}
		d, err := env.decide(id, s.q.Terms, s.pred, scratch[w][:len(s.q.Terms)], st)
		s.keep[u.i] = d == True
		s.undec[u.i] = d == Unknown
		return err
	})
	mergeWorkerStats()
	if err != nil {
		return nil, err
	}

	// Stage 2 (sequential, cheap): static pruning per query, then the
	// batch load plan — every mask still needing verification, mapped
	// to the consumers interested in it.
	needs := make(map[int64][]consumer)
	for qi := range states {
		s := &states[qi]
		switch s.q.Kind {
		case BatchFilter:
			for i, u := range s.undec {
				if u {
					needs[s.targets[i]] = append(needs[s.targets[i]], consumer{qi, i})
				}
			}
			continue
		case BatchTopK:
			s.rank = rankTopK(s.cands, nil, s.q.K, s.q.Order, true, &s.st)
		case BatchAgg:
			s.rank = rankAgg(s.q.Groups, s.cands, nil, s.q.Agg, s.q.K, s.q.Order, &s.st)
		}
		for i, it := range s.rank.items {
			needs[it.ID] = append(needs[it.ID], consumer{qi, i})
		}
	}
	ids := make([]int64, 0, len(needs))
	for id := range needs {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	// Stage 3: shared verification. Each distinct mask is loaded once
	// and evaluated for every consumer; a Top-K consumer whose bounds
	// fall below its query's refined τ is skipped instead (and a mask
	// nobody still wants is not loaded at all). On a sharded store the
	// loads are handed out shard by shard, so each shard's file and
	// cache arena serve their own worker slice.
	_, err = forEach(ctx, env, len(ids), func(ii int) int64 { return ids[ii] }, func(w int, _ *Stats, ii int) error {
		id := ids[ii]
		cons := needs[id]
		active := make([]consumer, 0, len(cons))
		for _, c := range cons {
			if r := states[c.qi].rank; r != nil && r.skip(c.i) {
				wstats[w][c.qi].RejectedByBounds++
				continue
			}
			active = append(active, c)
		}
		if len(active) == 0 {
			return nil
		}
		m, err := env.Loader.LoadMask(id)
		if err != nil {
			return fmt.Errorf("verify mask %d: %w", id, err)
		}
		for _, c := range active {
			s := &states[c.qi]
			wstats[w][c.qi].Loaded++
			vals := make([]int64, len(s.q.Terms))
			for ti, t := range s.q.Terms {
				vals[ti] = t.Eval(id, m)
			}
			if s.rank != nil {
				s.rank.land(c.i, vals[s.q.Score])
			} else {
				s.keep[c.i] = s.pred.Eval(vals)
			}
		}
		if env.OnVerify != nil {
			env.OnVerify(id, m)
		}
		if r, ok := env.Loader.(MaskRecycler); ok {
			r.ReleaseMask(m)
		}
		return nil
	})
	mergeWorkerStats()
	if err != nil {
		return nil, err
	}

	// Stage 4 (sequential): assemble each query's result exactly as
	// its standalone executor would.
	out := make([]BatchResult, len(queries))
	for qi := range states {
		s := &states[qi]
		if s.rank != nil {
			out[qi].Ranked = s.rank.out()
		} else {
			for i, id := range s.targets {
				if s.keep[i] {
					out[qi].IDs = append(out[qi].IDs, id)
				}
			}
		}
		out[qi].Stats = s.st
	}
	return out, nil
}
