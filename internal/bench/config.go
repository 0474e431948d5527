// Package bench materializes the evaluation datasets and regenerates
// the paper's tables and figures (DESIGN.md's experiment index). It is
// shared by `go test -bench` (with the reduced Quick configuration)
// and cmd/msbench (full-size Default configuration).
package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// Config selects dataset sizes and query counts for one evaluation run.
type Config struct {
	// Dir is where datasets are generated and reused.
	Dir string
	// Seed drives every random query generator.
	Seed int64
	// NQueries is the per-type query count for fig8/fig9/ablation/sweep.
	NQueries int
	// NWorkloadQueries is the workload length for fig11.
	NWorkloadQueries int
	// Wilds and Imagenet are the two dataset specs.
	Wilds, Imagenet store.Spec
}

// Default is the full-size configuration used by cmd/msbench.
func Default(dir string) Config {
	return Config{
		Dir:              dir,
		Seed:             42,
		NQueries:         100,
		NWorkloadQueries: 25,
		Wilds:            store.WildsSimSpec(),
		Imagenet:         store.ImageNetSimSpec(),
	}
}

// Quick is the reduced configuration used by the repository's `go
// test -bench` suite; it keeps datasets small enough that the whole
// suite sets up in seconds.
func Quick(dir string) Config {
	return Config{
		Dir:              dir,
		Seed:             42,
		NQueries:         20,
		NWorkloadQueries: 8,
		Wilds: store.Spec{
			Name: "wilds-quick", Images: 100, Models: 2,
			W: 64, H: 64, Seed: 11, HumanAttention: true,
		},
		Imagenet: store.Spec{
			Name: "imagenet-quick", Images: 200, Models: 1,
			W: 48, H: 48, Seed: 12,
		},
	}
}

// SetupWilds generates (on first use) and opens the WILDS stand-in.
func (c Config) SetupWilds() (*DatasetEnv, error) { return c.setup(c.Wilds) }

// SetupImagenet generates (on first use) and opens the ImageNet
// stand-in.
func (c Config) SetupImagenet() (*DatasetEnv, error) { return c.setup(c.Imagenet) }

func (c Config) setup(spec store.Spec) (*DatasetEnv, error) {
	dir := filepath.Join(c.Dir, spec.Name)
	man, err := store.LoadManifest(dir)
	// Regenerate on any mismatch: a changed spec, a dataset produced by
	// an older generator (GenVersion — pixel content changed), or a
	// non-raw codec left behind by another experiment.
	if err != nil || !sameSpec(man.Spec, spec) || man.GenVersion != store.GenVersion || man.Codec != store.CodecRaw {
		if err := store.Generate(dir, spec); err != nil {
			return nil, fmt.Errorf("bench: generate %s: %w", spec.Name, err)
		}
		if man, err = store.LoadManifest(dir); err != nil {
			return nil, err
		}
	}
	st, cat, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &DatasetEnv{
		Params:  man.Spec,
		Dir:     dir,
		Store:   st,
		Cat:     cat,
		indexes: map[string]*core.MemoryIndex{},
	}, nil
}

// sameSpec compares a manifest spec against a requested spec modulo
// defaulted fields, so upgrading the Quick config regenerates stale
// datasets instead of silently reusing them.
func sameSpec(a, b store.Spec) bool {
	norm := func(s store.Spec) store.Spec {
		s.Classes, s.MispredictRate, s.ModifiedRate = 0, 0, 0
		return s
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// DatasetEnv is one opened evaluation dataset plus its index cache.
type DatasetEnv struct {
	// Params is the dataset's generation spec (from its manifest).
	Params store.Spec
	// Dir is the dataset directory, so facade-level experiments can
	// open a masksearch.DB over the same data.
	Dir string
	// Store reads masks and accounts traffic.
	Store *store.Store
	// Cat is the dataset's catalog.
	Cat *store.Catalog
	// Exec is the execution strategy every experiment on this dataset
	// runs under (zero value: the sequential engine). cmd/msbench
	// sets it from -workers.
	Exec core.Exec

	mu      sync.Mutex
	indexes map[string]*core.MemoryIndex
}

// SmallConfig is the coarse CHI granularity (the paper's default):
// cells of W/4 pixels and 10 value edges, ≈12% of the data size.
func (d *DatasetEnv) SmallConfig() core.Config {
	return core.Config{
		CellW: max(2, d.Params.W/4), CellH: max(2, d.Params.H/4),
		Edges: core.DefaultEdges(10),
	}
}

// LargeConfig is the fine CHI granularity: cells of W/8 pixels and 20
// value edges, trading index size for tighter bounds (Figure 10).
func (d *DatasetEnv) LargeConfig() core.Config {
	return core.Config{
		CellW: max(1, d.Params.W/8), CellH: max(1, d.Params.H/8),
		Edges: core.DefaultEdges(20),
	}
}

// Index eagerly builds (once per config, then cached) the full CHI
// index of the dataset, fanning the build across d.Exec's worker
// pool.
func (d *DatasetEnv) Index(cfg core.Config) (*core.MemoryIndex, error) {
	ncfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ix, ok := d.indexes[ncfg.Key()]; ok {
		return ix, nil
	}
	ix := core.NewMemoryIndex(ncfg)
	if _, err := core.IndexAll(context.Background(), d.Store, ix, d.Cat.MaskIDs(nil), d.Exec); err != nil {
		return nil, err
	}
	d.indexes[ncfg.Key()] = ix
	return ix, nil
}

// Env wires an executor environment around a (possibly nil) index.
func (d *DatasetEnv) Env(ix *core.MemoryIndex) *core.Env {
	return &core.Env{Loader: d.Store, Index: ix, Exec: d.Exec}
}

// Close releases the dataset's store.
func (d *DatasetEnv) Close() error { return d.Store.Close() }
