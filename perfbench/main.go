// Command perfbench is the repository benchmark: it generates a seeded
// wilds-sim dataset and statement mix, runs one of four workloads
// (explore, incremental, ingest, scatter) against the engine for a fixed
// number of seconds, checks every answer against references computed in
// set-up, and prints one JSON result line.
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a traced run (see README.md).
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's parameters and shared state.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // working directory of this run, removed at exit

	tr  *tracer // nil in untraced runs
	mu  sync.Mutex
	out result
}

// set records one metric.
func (r *run) set(name, unit string, v float64) {
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted operation and whether it failed.
func (r *run) check(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.Attempted++
	if !ok {
		r.out.Failed++
	}
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"explore":     runExplore,
	"incremental": runIncremental,
	"ingest":      runIngest,
	"scatter":     runScatter,
}

func main() {
	wl := flag.String("workload", "", "explore | incremental | ingest | scatter")
	seed := flag.Int64("seed", 1, "seed of the dataset and the statement mix")
	secs := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench", "directory for datasets and trace files")
	flag.Parse()
	fn, ok := workloads[*wl]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	r := &run{
		workload: *wl, seed: *seed, trace: *trace == 1, dir: dir,
		seconds: time.Duration(*secs * float64(time.Second)),
		out:     result{Metrics: map[string]metric{}},
	}
	if r.trace {
		r.tr = newTracer()
	}
	err = fn(context.Background(), r)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if r.trace {
		path := filepath.Join(*work, "trace-"+*wl+"-"+strconv.FormatInt(*seed, 10)+".tsv")
		if err := r.tr.write(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", r.tr.len(), path)
	}
	r.out.Correct = r.out.Failed == 0 && r.out.Attempted > 0
	line, err := json.Marshal(r.out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !r.out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
