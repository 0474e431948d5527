package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"masksearch/internal/core"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is 0 for a root span; req groups the spans of
// one request.
type span struct {
	id, parent, req int64
	name            string
	start, end      int64
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{id, parent, req, name, t.ns(start), t.ns(end)})
	t.mu.Unlock()
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans as tab-separated rows.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time window in tracer nanoseconds.
type interval struct{ start, end int64 }

// covered is the length of [start, end) that the union of ivs covers.
func covered(start, end int64, ivs []interval) int64 {
	clip := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, start), min(iv.end, end)
		if s < e {
			clip = append(clip, interval{s, e})
		}
	}
	slices.SortFunc(clip, func(a, b interval) int { return int(a.start - b.start) })
	var total, cur, curEnd int64 = 0, -1, -1
	for _, iv := range clip {
		if iv.start > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = iv.start, iv.end
		} else if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// coreCall traces one replayed core call. Its loader, index and
// OnVerify wrappers record a span per mask load, per verify window
// (LoadMask return to ReleaseMask) and per observe, all children of
// the core span.
type coreCall struct {
	tr    *tracer
	req   int64
	spans bool // keep the per-mask child spans in the trace

	mu       sync.Mutex
	loads    []interval
	verifies []interval
	observes []interval
	loadEnd  map[*core.Mask]int64
}

// recycler is a loader that also takes masks back.
type recycler interface {
	core.MaskLoader
	core.MaskRecycler
}

// timedLoader wraps a loader for one call.
type timedLoader struct {
	inner recycler
	c     *coreCall
}

func (l timedLoader) LoadMask(id int64) (*core.Mask, error) {
	t0 := time.Now()
	m, err := l.inner.LoadMask(id)
	t1 := time.Now()
	c := l.c
	s, e := c.tr.ns(t0), c.tr.ns(t1)
	c.mu.Lock()
	c.loads = append(c.loads, interval{s, e})
	if m != nil {
		c.loadEnd[m] = e
	}
	c.mu.Unlock()
	return m, err
}

func (l timedLoader) ReleaseMask(m *core.Mask) {
	c := l.c
	end := c.tr.ns(time.Now())
	c.mu.Lock()
	if s, ok := c.loadEnd[m]; ok {
		c.verifies = append(c.verifies, interval{s, end})
		delete(c.loadEnd, m)
	}
	c.mu.Unlock()
	l.inner.ReleaseMask(m)
}

// coreStats is what one replayed core call contributes to the core
// and store per-layer metrics.
type coreStats struct {
	coreNs, boundsNs, verifyNs, loadNs, observeNs int64
	loads                                         int64 // LoadMask calls
	stats                                         core.Stats
}

// env builds the traced environment: loads through inner, bounds from
// idx, and — when observe is set — incremental indexing into idx.
func (c *coreCall) env(inner recycler, idx *core.MemoryIndex, observe bool, ex core.Exec) *core.Env {
	c.loadEnd = map[*core.Mask]int64{}
	env := &core.Env{Loader: timedLoader{inner, c}, Index: idx, Exec: ex}
	if observe {
		env.OnVerify = func(id int64, m *core.Mask) {
			t0 := time.Now()
			if chi, _ := idx.ChiFor(id); chi == nil {
				idx.Observe(id, m)
			}
			t1 := time.Now()
			c.mu.Lock()
			c.observes = append(c.observes, interval{c.tr.ns(t0), c.tr.ns(t1)})
			c.mu.Unlock()
		}
	}
	return env
}

// finish records the core span and its children and splits its time:
// bounds is the core span's self time outside loads and verify windows;
// verify is the verify windows minus the observes inside them.
func (c *coreCall) finish(parent int64, start, end time.Time, st core.Stats) coreStats {
	tr := c.tr
	id := tr.add("core.replay", parent, c.req, start, end)
	s, e := tr.ns(start), tr.ns(end)
	out := coreStats{coreNs: e - s, loads: int64(len(c.loads)), stats: st}
	add := func(name string, ivs []interval) (sum int64) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, iv := range ivs {
			if c.spans {
				tr.spans = append(tr.spans, span{tr.ids.Add(1), id, c.req, name, iv.start, iv.end})
			}
			sum += iv.end - iv.start
		}
		return sum
	}
	out.loadNs = add("store.load", c.loads)
	out.observeNs = add("core.observe", c.observes)
	out.verifyNs = add("core.verify", c.verifies) - out.observeNs
	out.boundsNs = out.coreNs - covered(s, e, append(slices.Clip(c.loads), c.verifies...))
	return out
}

// layerSums accumulates per-query layer costs across a traced phase.
type layerSums struct {
	queries int64
	coreStats
	loaded, targets, indexHits, decided int64
}

func (l *layerSums) add(c coreStats) { l.addBatch(c, 1) }

// addBatch adds one core call that answered n statements; the per-query
// metrics average over statements.
func (l *layerSums) addBatch(c coreStats, n int) {
	l.queries += int64(n)
	l.coreNs += c.coreNs
	l.boundsNs += c.boundsNs
	l.verifyNs += c.verifyNs
	l.loadNs += c.loadNs
	l.observeNs += c.observeNs
	l.loads += c.loads
	l.loaded += int64(c.stats.Loaded)
	l.targets += int64(c.stats.Targets)
	l.indexHits += int64(c.stats.IndexHits)
	l.decided += int64(c.stats.AcceptedByBounds + c.stats.RejectedByBounds)
}

// report sets the core.* and store.load_us / masks_loaded metrics.
func (l *layerSums) report(r *run) {
	q := float64(max(l.queries, 1))
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("core.bounds_ms", "ms", float64(l.boundsNs)/1e6/q)
	r.set("core.bounds_ns_per_target", "ns", ratio(l.boundsNs, l.targets))
	r.set("core.verify_ms", "ms", float64(l.verifyNs)/1e6/q)
	r.set("core.verify_ns_per_mask", "ns", ratio(l.verifyNs, l.loads))
	r.set("core.observe_ms", "ms", float64(l.observeNs)/1e6/q)
	r.set("core.fml", "ratio", ratio(l.loaded, l.targets))
	r.set("core.bound_decided_ratio", "ratio", ratio(l.decided, l.targets))
	r.set("core.index_hit_ratio", "ratio", ratio(l.indexHits, l.targets))
	r.set("core.batch_share_ratio", "ratio", ratio(l.loads, l.loaded))
	r.set("store.load_us", "us", ratio(l.loadNs, l.loads)/1e3)
	r.set("store.masks_loaded_per_query", "count", float64(l.loads)/q)
	r.set("masksearch.targets_per_query", "count", float64(l.targets)/q)
}
