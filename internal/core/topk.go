package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
)

// unknownHi stands in for the score upper bound of an unindexed mask:
// it forces the mask into the candidate set so it gets verified.
const unknownHi = int64(math.MaxInt64 / 4)

// pruneByBounds is the one static-τ pruning rule every ranking
// executor (TopK, AggTopK, batch and the distributed coordinator)
// shares: the k-th best pessimistic bound is a score the answer
// provably reaches, so any candidate whose optimistic bound is
// strictly worse cannot place. Keeping ties (>= / <=) is what makes
// the rule exact rather than heuristic. It mutates cands in place and
// returns the survivors; reject observes each dropped candidate.
func pruneByBounds[T any, V cmp.Ordered](cands []T, k int, ord Order, lo, hi func(T) V, reject func(T)) []T {
	if k >= len(cands) {
		return cands
	}
	sel := make([]V, len(cands))
	if ord == Desc {
		for i, c := range cands {
			sel[i] = lo(c)
		}
		slices.SortFunc(sel, func(a, b V) int { return cmp.Compare(b, a) })
		tau := sel[k-1]
		kept := cands[:0]
		for _, c := range cands {
			if hi(c) >= tau {
				kept = append(kept, c)
			} else {
				reject(c)
			}
		}
		return kept
	}
	for i, c := range cands {
		sel[i] = hi(c)
	}
	slices.Sort(sel)
	tau := sel[k-1]
	kept := cands[:0]
	for _, c := range cands {
		if lo(c) <= tau {
			kept = append(kept, c)
		} else {
			reject(c)
		}
	}
	return kept
}

// TopK ranks targets by the exact value of terms[score] and returns
// the best k in the requested order (ties break toward smaller ids).
// CHI bounds prune targets that provably cannot reach the k-th rank;
// only surviving candidates with inexact bounds are loaded. With a
// worker pool configured the bounds and verification stages fan out;
// the returned ranking is identical to the sequential engine's, but
// the pool additionally refines τ as exact scores land, so the
// verification stage may skip (and not load) candidates the
// sequential engine would have loaded.
func TopK(ctx context.Context, env *Env, targets []int64, terms []CPTerm, score Term, k int, ord Order) ([]Scored, Stats, error) {
	if err := CheckScore(terms, score); err != nil {
		return nil, Stats{}, err
	}
	return RankTopK(ctx, env.stages(terms, score), targets, k, ord, env.Exec.workers() > 1)
}

// AggTopK groups masks, aggregates the exact value of terms[score]
// within each group with agg, and returns the top-k groups. Group
// bounds are derived from member CHI bounds; groups that provably
// cannot rank are pruned before any mask is loaded. The worker-pool
// engine fans both the member-bounds and member-verification stages
// out across goroutines with results and stats identical to the
// sequential engine.
func AggTopK(ctx context.Context, env *Env, groups []Group, terms []CPTerm, score Term, agg Agg, k int, ord Order) ([]Scored, Stats, error) {
	if err := CheckScore(terms, score); err != nil {
		return nil, Stats{}, err
	}
	return RankAgg(ctx, env.stages(terms, score), groups, agg, k, ord)
}

// aggBounds folds member bounds into group bounds; every aggregate
// here is monotone in each member, so folding lows and highs
// separately is admissible.
func aggBounds(agg Agg, los, his []float64) (float64, float64) {
	return AggExact(agg, los), AggExact(agg, his)
}

// AggExact applies an aggregate to exact member values.
func AggExact(agg Agg, vals []float64) float64 {
	switch agg {
	case Sum, Mean:
		var s float64
		for _, v := range vals {
			s += v
		}
		if agg == Mean {
			s /= float64(len(vals))
		}
		return s
	case Min:
		out := vals[0]
		for _, v := range vals[1:] {
			out = math.Min(out, v)
		}
		return out
	case Max:
		out := vals[0]
		for _, v := range vals[1:] {
			out = math.Max(out, v)
		}
		return out
	}
	return 0
}

// topOf sorts scored results and keeps the best k.
func topOf(s []Scored, k int, ord Order) []Scored {
	SortScored(s, ord)
	if k < len(s) {
		s = s[:k]
	}
	return s
}

// SortScored orders scored results by score in the given direction,
// breaking ties toward smaller ids.
func SortScored(s []Scored, ord Order) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			if ord == Desc {
				return s[i].Score > s[j].Score
			}
			return s[i].Score < s[j].Score
		}
		return s[i].ID < s[j].ID
	})
}
