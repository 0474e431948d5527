package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// TestSequentialTopKCounters pins the workers=1 TopK counters to the
// pipeline's stages: Loaded is exactly the number of inexact
// candidates that survive static pruning (every one is loaded, once),
// and RejectedByBounds exactly the static-prune count. These are the
// reference counts the parallel and batch property tests compare
// against.
func TestSequentialTopKCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	ctx := context.Background()
	loader, idx, ids := buildParFixture(rng, 90, 16, 16)
	for iter := 0; iter < 40; iter++ {
		terms := []CPTerm{{Region: FixedRegion(randomROI(rng, 16, 16)), Range: randomVR(rng)}}
		k := 1 + rng.Intn(15)
		ord := Order(rng.Intn(2))
		env := &Env{Loader: loader, Index: idx}

		cands, _, err := BoundCands(ctx, env, ids, terms[0])
		if err != nil {
			t.Fatal(err)
		}
		var pruned Stats
		survivors := PruneCands(cands, k, ord, &pruned)
		inexact := 0
		for _, c := range survivors {
			if !c.Known {
				inexact++
			}
		}

		before := loader.loaded
		_, st, err := TopK(ctx, env, ids, terms, 0, k, ord)
		if err != nil {
			t.Fatal(err)
		}
		if st.Loaded != inexact || loader.loaded-before != inexact {
			t.Fatalf("iter %d (k=%d %v): Loaded = %d, store loads = %d, want %d inexact survivors",
				iter, k, ord, st.Loaded, loader.loaded-before, inexact)
		}
		if st.RejectedByBounds != pruned.RejectedByBounds {
			t.Fatalf("iter %d (k=%d %v): RejectedByBounds = %d, want the static-prune count %d",
				iter, k, ord, st.RejectedByBounds, pruned.RejectedByBounds)
		}
		if st.AcceptedByBounds != len(survivors)-inexact || st.Targets != len(ids) {
			t.Fatalf("iter %d: stats %v, want %d accepted of %d targets", iter, st, len(survivors)-inexact, len(ids))
		}
	}
}

// TestLedgerLandsOnce: landing a slot twice — the hedged-attempt and
// failover case — leaves τ and the landed set exactly as landing it
// once, even when the duplicate carries a different score.
func TestLedgerLandsOnce(t *testing.T) {
	for _, ord := range []Order{Desc, Asc} {
		once, twice := newLedger(3, 2, ord), newLedger(3, 2, ord)
		check := func(step string) {
			t.Helper()
			tau1, ok1 := once.Threshold()
			tau2, ok2 := twice.Threshold()
			if tau1 != tau2 || ok1 != ok2 {
				t.Fatalf("%v %s: τ = (%d, %v) after duplicates, want (%d, %v)", ord, step, tau2, ok2, tau1, ok1)
			}
			if !slices.Equal(once.landed, twice.landed) || !slices.Equal(once.scores, twice.scores) {
				t.Fatalf("%v %s: landed %v %v after duplicates, want %v %v",
					ord, step, twice.landed, twice.scores, once.landed, once.scores)
			}
		}
		once.Land(0, 5)
		twice.Land(0, 5)
		twice.Land(0, 5)
		// One candidate landed, k = 2: counting it twice would fill the
		// heap and publish an unsound τ.
		check("slot 0")
		if _, ok := twice.Threshold(); ok {
			t.Fatalf("%v: τ published after one distinct landing", ord)
		}
		once.Land(1, 9)
		twice.Land(1, 9)
		twice.Land(1, 1) // a late duplicate with another score: the first landing wins
		check("slot 1")
		once.Land(2, 7)
		twice.Land(2, 7)
		twice.Land(0, 5)
		check("slot 2")
		// Desc keeps {9, 7}, Asc keeps {5, 7}: τ = 7 either way.
		if tau, ok := once.Threshold(); !ok || tau != 7 {
			t.Fatalf("%v: τ = (%d, %v), want 7", ord, tau, ok)
		}
	}
}
