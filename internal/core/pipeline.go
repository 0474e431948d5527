package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the filter–verification pipeline every ranking
// executor runs: bounds → static pruning → land the bounds-exact
// candidates → verify (optionally τ-gated) → rank what landed. The
// orchestration (RankTopK, RankAgg) is written once and parameterised
// by a Stages backend; the local engine backs it with its index and
// loader (Env.stages), the distributed coordinator with its
// scatter-gather requests, and ExecBatch reuses the same rankings
// around its shared-load verification. The per-item stage bodies —
// boundCand and VerifyEach's verify-and-land step — live here too, so
// a shard node runs exactly the local engine's per-target work.

// CandBound is one ranking candidate's CHI bounds, in the exported
// shape the coordinator exchanges with shard nodes. Indexed
// distinguishes "no CHI" from a CHI whose bounds happen to span the
// whole range: the aggregation executor widens unindexed members to
// +Inf, which Bounds alone cannot express.
type CandBound struct {
	ID      int64  `json:"id"`
	B       Bounds `json:"b"`
	Known   bool   `json:"known,omitempty"`
	Score   int64  `json:"score,omitempty"`
	Indexed bool   `json:"indexed,omitempty"`
}

// boundCand resolves one candidate's score bounds from the index; it
// is the single bounds rule of TopK, AggTopK, ExecBatch and the
// distributed bounds service.
func (e *Env) boundCand(id int64, term CPTerm, st *Stats) (CandBound, error) {
	c := CandBound{ID: id, B: Bounds{Lo: 0, Hi: unknownHi}}
	chi, err := e.chiFor(id, st)
	if err != nil {
		return c, err
	}
	if chi != nil {
		c.Indexed = true
		c.B = term.BoundsFrom(chi, id)
		if c.B.Lo == c.B.Hi {
			c.Known, c.Score = true, c.B.Lo
		}
	}
	return c, nil
}

// BoundCands resolves every target's score bounds (the TopK bounds
// stage, and the member-bounds stage of AggTopK) in target order.
func BoundCands(ctx context.Context, env *Env, targets []int64, term CPTerm) ([]CandBound, Stats, error) {
	out := make([]CandBound, len(targets))
	st, err := forEach(ctx, env, len(targets), nil, func(_ int, st *Stats, i int) error {
		var err error
		out[i], err = env.boundCand(targets[i], term, st)
		return err
	})
	st.Targets = len(targets)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// PruneCands applies TopK's static pruning rule to a candidate slice:
// candidates whose upper bound is strictly worse than the k-th best
// lower bound can never place. A k outside (0, len) keeps every
// candidate.
func PruneCands(cands []CandBound, k int, ord Order, st *Stats) []CandBound {
	if k <= 0 || k >= len(cands) {
		return cands
	}
	return pruneByBounds(cands, k, ord,
		func(c CandBound) int64 { return c.B.Lo },
		func(c CandBound) int64 { return c.B.Hi },
		func(CandBound) { st.RejectedByBounds++ })
}

// GroupBound is one aggregation group's aggregate bounds; N is the
// member count (group pruning rejects all members).
type GroupBound struct {
	Key    int64
	Lo, Hi float64
	N      int
}

// PruneGroupBounds applies AggTopK's static group pruning rule. A k
// outside (0, len) keeps every group.
func PruneGroupBounds(gs []GroupBound, k int, ord Order, st *Stats) []GroupBound {
	if k <= 0 || k >= len(gs) {
		return gs
	}
	return pruneByBounds(gs, k, ord,
		func(g GroupBound) float64 { return g.Lo },
		func(g GroupBound) float64 { return g.Hi },
		func(g GroupBound) { st.RejectedByBounds += g.N })
}

// AggMemberBounds folds a group's member bounds into its aggregate
// bounds. An unindexed member's upper bound is +Inf (not unknownHi) so
// the group's aggregate bound stays admissible for every aggregate.
func AggMemberBounds(agg Agg, cands []CandBound) (lo, hi float64) {
	los := make([]float64, len(cands))
	his := make([]float64, len(cands))
	for i, c := range cands {
		los[i] = float64(c.B.Lo)
		if c.Indexed {
			his[i] = float64(c.B.Hi)
		} else {
			his[i] = math.Inf(1)
		}
	}
	return aggBounds(agg, los, his)
}

// Tau is an atomically readable top-k threshold τ: the k-th best exact
// score landed so far. A TauTracker derives it from landed scores; a
// shard node holds a bare Tau that the coordinator's tracker advances
// over the wire. Only a τ that k really-landed scores justify is ever
// set, so a stale read is merely conservative — the property that
// keeps skips sound without a lock.
type Tau struct {
	ord  Order
	tau  atomic.Int64
	full atomic.Bool
}

// NewTau returns an open threshold (nothing may be skipped yet).
func NewTau(ord Order) *Tau { return &Tau{ord: ord} }

// Set advances the threshold to a τ that k landed exact scores
// justify.
func (t *Tau) Set(tau int64) {
	t.tau.Store(tau)
	t.full.Store(true)
}

// Skip reports whether a candidate with bounds b provably cannot reach
// the k-th rank: its bound is strictly worse than τ, so it cannot tie
// with — let alone beat — any of the k tracked candidates.
func (t *Tau) Skip(b Bounds) bool {
	if !t.full.Load() {
		return false
	}
	if t.ord == Desc {
		return b.Hi < t.tau.Load()
	}
	return b.Lo > t.tau.Load()
}

// Threshold reports the current τ; ok is false until k scores have
// landed (before that no candidate may be skipped).
func (t *Tau) Threshold() (tau int64, ok bool) {
	if !t.full.Load() {
		return 0, false
	}
	return t.tau.Load(), true
}

// TauTracker is a query's exact-score ledger and its τ authority. It
// records the first landing of each candidate slot — a hedged or
// failover attempt, or a batch consumer, may deliver the same slot
// twice, and counting it twice would tighten τ beyond what the landed
// scores justify — and keeps the k best landed scores in a heap whose
// root is τ: a min-heap of the k largest for Desc, a max-heap of the k
// smallest for Asc. A tracker with k <= 0 is a plain ledger.
type TauTracker struct {
	Tau
	mu     sync.Mutex
	k      int
	h      []int64
	landed []bool
	scores []int64
}

// NewTauTracker returns a tracker of the k best scores with no ledger
// slots (only Add may be used).
func NewTauTracker(k int, ord Order) *TauTracker { return newLedger(0, k, ord) }

// newLedger returns a tracker with n ledger slots.
func newLedger(n, k int, ord Order) *TauTracker {
	return &TauTracker{Tau: Tau{ord: ord}, k: k, h: make([]int64, 0, max(k, 0)),
		landed: make([]bool, n), scores: make([]int64, n)}
}

// rootWorse reports whether a ranks strictly worse than b (the heap
// root is the worst retained score).
func (t *TauTracker) rootWorse(a, b int64) bool {
	if t.ord == Desc {
		return a < b
	}
	return a > b
}

// Add folds one exact score into τ. Each candidate's score must be
// added at most once; Land enforces that per slot.
func (t *TauTracker) Add(s int64) {
	t.mu.Lock()
	t.push(s)
	t.mu.Unlock()
}

// Land records slot i's exact score and folds it into τ. Only the
// first landing of a slot counts; a duplicate is dropped.
func (t *TauTracker) Land(i int, s int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.landed[i] {
		return
	}
	t.landed[i], t.scores[i] = true, s
	t.push(s)
}

// push is Add under t.mu.
func (t *TauTracker) push(s int64) {
	if t.k <= 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, s)
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !t.rootWorse(t.h[i], t.h[p]) {
				break
			}
			t.h[i], t.h[p] = t.h[p], t.h[i]
			i = p
		}
		if len(t.h) == t.k {
			t.Set(t.h[0])
		}
		return
	}
	if !t.rootWorse(t.h[0], s) {
		return
	}
	t.h[0] = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(t.h) && t.rootWorse(t.h[l], t.h[worst]) {
			worst = l
		}
		if r < len(t.h) && t.rootWorse(t.h[r], t.h[worst]) {
			worst = r
		}
		if worst == i {
			break
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
	t.Set(t.h[0])
}

// landedRange returns the exact scores of slots [off, off+n) as
// floats, or false when any of them has not landed.
func (t *TauTracker) landedRange(off, n int) ([]float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vals := make([]float64, n)
	for j := range vals {
		if !t.landed[off+j] {
			return nil, false
		}
		vals[j] = float64(t.scores[off+j])
	}
	return vals, true
}

// VerifyItem is one verification work item: the candidate and the
// bounds its gate check uses.
type VerifyItem struct {
	ID int64  `json:"id"`
	B  Bounds `json:"b"`
}

// VerifyEach loads and exactly evaluates every item the gate does not
// skip, calling emit(i, vals) with the item's index and its exact
// per-term values. A nil gate verifies everything. Gate skips are
// counted as RejectedByBounds. emit may be called concurrently when
// env.Exec runs a pool; the returned skipped flags are per-item and
// written before VerifyEach returns.
func VerifyEach(ctx context.Context, env *Env, items []VerifyItem, terms []CPTerm, gate *Tau, emit func(i int, vals []int64)) ([]bool, Stats, error) {
	skipped := make([]bool, len(items))
	st, err := forEach(ctx, env, len(items), func(i int) int64 { return items[i].ID }, func(_ int, st *Stats, i int) error {
		if gate != nil && gate.Skip(items[i].B) {
			skipped[i] = true
			st.RejectedByBounds++
			return nil
		}
		vals, err := env.verify(items[i].ID, terms, st)
		if err != nil {
			return err
		}
		emit(i, vals)
		return nil
	})
	return skipped, st, err
}

// Stages is a pipeline backend: where a ranking query's bounds come
// from and where its verification runs. Both functions add their
// stats to st.
type Stages struct {
	// Bounds resolves the score bounds of targets in target order.
	// covered, when non-nil, flags the targets the backend reached;
	// the pipeline drops the rest.
	Bounds func(ctx context.Context, targets []int64, st *Stats) (cands []CandBound, covered []bool, err error)
	// Verify evaluates items exactly and lands item i's score with
	// land(i, score). A non-nil gate is the query's τ: an item whose
	// bounds gate.Skip rejects may be skipped (counted as
	// RejectedByBounds) and left unlanded.
	Verify func(ctx context.Context, items []VerifyItem, gate *Tau, land func(i int, score int64), st *Stats) error
}

// stages is the local backend: bounds from env's index, verification
// from env's loader, each on env.Exec's pool.
func (e *Env) stages(terms []CPTerm, score Term) Stages {
	return Stages{
		Bounds: func(ctx context.Context, targets []int64, st *Stats) ([]CandBound, []bool, error) {
			cands, bst, err := BoundCands(ctx, e, targets, terms[score])
			st.Merge(bst)
			return cands, nil, err
		},
		Verify: func(ctx context.Context, items []VerifyItem, gate *Tau, land func(int, int64), st *Stats) error {
			_, vst, err := VerifyEach(ctx, e, items, terms, gate, func(i int, vals []int64) { land(i, vals[score]) })
			st.Merge(vst)
			return err
		},
	}
}

// CheckScore rejects a score term index outside terms.
func CheckScore(terms []CPTerm, score Term) error {
	if int(score) < 0 || int(score) >= len(terms) {
		return fmt.Errorf("core: score term T%d out of range (have %d terms)", int(score), len(terms))
	}
	return nil
}

// ranking carries one TopK or AggTopK query from its pruned
// candidates to its answer: the items still to verify, the ledger
// their exact scores land in, and the fold from ledger to ranking.
type ranking struct {
	led   *TauTracker
	gate  *Tau // nil: verification is ungated
	items []VerifyItem
	slot  []int // items[i] lands in ledger slot slot[i]
	out   func() []Scored
}

// need lands a bounds-exact candidate in ledger slot i, or queues it
// for verification.
func (r *ranking) need(i int, c CandBound, st *Stats) {
	if c.Known {
		st.AcceptedByBounds++
		r.led.Land(i, c.Score)
		return
	}
	r.items = append(r.items, VerifyItem{ID: c.ID, B: c.B})
	r.slot = append(r.slot, i)
}

// land records verify item i's exact score.
func (r *ranking) land(i int, score int64) { r.led.Land(r.slot[i], score) }

// skip reports whether verify item i is provably out of the answer.
func (r *ranking) skip(i int) bool { return r.gate != nil && r.gate.Skip(r.items[i].B) }

// verify runs the verification stage on backend s.
func (r *ranking) verify(ctx context.Context, s Stages, st *Stats) error {
	if len(r.items) == 0 {
		return nil
	}
	return s.Verify(ctx, r.items, r.gate, r.land, st)
}

// clampK maps k <= 0 ("all") and k > n to n.
func clampK(k, n int) int {
	if k <= 0 || k > n {
		return n
	}
	return k
}

// rankTopK prunes TopK candidates and plans their verification;
// uncovered candidates (covered non-nil and false) are dropped first.
func rankTopK(cands []CandBound, covered []bool, k int, ord Order, gated bool, st *Stats) *ranking {
	if covered != nil {
		live := cands[:0]
		for i, c := range cands {
			if covered[i] {
				live = append(live, c)
			}
		}
		cands = live
	}
	k = clampK(k, len(cands))
	cands = PruneCands(cands, k, ord, st)
	r := &ranking{led: newLedger(len(cands), k, ord)}
	if gated {
		r.gate = &r.led.Tau
	}
	for i, c := range cands {
		r.need(i, c, st)
	}
	r.out = func() []Scored {
		r.led.mu.Lock()
		out := make([]Scored, 0, len(cands))
		for i, c := range cands {
			if r.led.landed[i] {
				out = append(out, Scored{ID: c.ID, Score: float64(r.led.scores[i])})
			}
		}
		r.led.mu.Unlock()
		return topOf(out, k, ord)
	}
	return r
}

// rankAgg groups member bounds (cands, in the member order of
// groupMembers(groups)), prunes groups on their aggregate bounds and
// plans the verification of the survivors' inexact members. A group
// with any uncovered member is dropped whole, and so is one whose
// members do not all land: a partial aggregate would be wrong, not
// partial.
func rankAgg(groups []Group, cands []CandBound, covered []bool, agg Agg, k int, ord Order, st *Stats) *ranking {
	offs := make([]int, len(groups))
	gbs := make([]GroupBound, 0, len(groups))
	off := 0
	for gi, g := range groups {
		offs[gi] = off
		n := len(g.IDs)
		off += n
		if n == 0 || (covered != nil && slices.Contains(covered[offs[gi]:off], false)) {
			continue
		}
		lo, hi := AggMemberBounds(agg, cands[offs[gi]:off])
		gbs = append(gbs, GroupBound{Key: int64(gi), Lo: lo, Hi: hi, N: n})
	}
	k = clampK(k, len(gbs))
	gbs = PruneGroupBounds(gbs, k, ord, st)
	r := &ranking{led: newLedger(len(cands), 0, ord)}
	for _, gb := range gbs {
		for j := offs[gb.Key]; j < offs[gb.Key]+gb.N; j++ {
			r.need(j, cands[j], st)
		}
	}
	r.out = func() []Scored {
		out := make([]Scored, 0, len(gbs))
		for _, gb := range gbs {
			if vals, ok := r.led.landedRange(offs[gb.Key], gb.N); ok {
				out = append(out, Scored{ID: groups[gb.Key].Key, Score: AggExact(agg, vals)})
			}
		}
		return topOf(out, k, ord)
	}
	return r
}

// groupMembers flattens the groups' member ids in group order: the
// target list of AggTopK's member-bounds stage.
func groupMembers(groups []Group) []int64 {
	var ids []int64
	for _, g := range groups {
		ids = append(ids, g.IDs...)
	}
	return ids
}

// RankTopK is the one TopK orchestration: bounds, static pruning,
// landing the bounds-exact candidates, verification (τ-gated when
// gated is set), then the deterministic rank of what landed.
func RankTopK(ctx context.Context, s Stages, targets []int64, k int, ord Order, gated bool) ([]Scored, Stats, error) {
	var st Stats
	cands, covered, err := s.Bounds(ctx, targets, &st)
	if err != nil {
		return nil, st, err
	}
	r := rankTopK(cands, covered, k, ord, gated, &st)
	if err := r.verify(ctx, s, &st); err != nil {
		return nil, st, err
	}
	return r.out(), st, nil
}

// RankAgg is the one AggTopK orchestration: member bounds, group
// bounds, group pruning, ungated verification of the survivors'
// inexact members, exact aggregation and the deterministic rank.
func RankAgg(ctx context.Context, s Stages, groups []Group, agg Agg, k int, ord Order) ([]Scored, Stats, error) {
	var st Stats
	cands, covered, err := s.Bounds(ctx, groupMembers(groups), &st)
	if err != nil {
		return nil, st, err
	}
	r := rankAgg(groups, cands, covered, agg, k, ord, &st)
	if err := r.verify(ctx, s, &st); err != nil {
		return nil, st, err
	}
	return r.out(), st, nil
}
