package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/diffeng"
	"repro/internal/pagestore"
	"repro/internal/shadoweng"
	"repro/internal/wal"
)

// ErrBusy surfaces a kernel admission limit (today: the overwriting
// engines' fixed intention-list, shadoweng.ErrBusy). The transaction
// cannot proceed right now but the condition is transient — wrapper
// layers abort the transaction and retry, exactly like a deadlock
// victim.
var ErrBusy = shadoweng.ErrBusy

// kernel is one row of the architecture table: a name and the pure kernel
// it builds over a data store and, for the WAL kernels, a log store.
type kernel struct {
	name  string
	wal   bool
	build func(data, log *pagestore.Store, walPool int) (RecoveryManager, error)
}

// kernels is the one table of the seven recovery architectures the paper
// compares, in its order: WAL with one and three parallel log streams,
// shadow paging (canonical, both overwrite variants, version selection),
// and differential files. Each WAL build gets its own wal.Config literal,
// so concurrent builds share nothing.
var kernels = []kernel{
	{"wal-1stream", true, func(data, log *pagestore.Store, walPool int) (RecoveryManager, error) {
		return wal.NewManager(data, wal.Config{LogStore: log, PoolPages: walPool}), nil
	}},
	{"wal-3streams", true, func(data, log *pagestore.Store, walPool int) (RecoveryManager, error) {
		return wal.NewManager(data, wal.Config{Streams: 3, Selection: wal.PageMod, LogStore: log, PoolPages: walPool}), nil
	}},
	{"shadow", false, func(data, _ *pagestore.Store, _ int) (RecoveryManager, error) {
		return shadoweng.New(data)
	}},
	{"ow-noundo", false, func(data, _ *pagestore.Store, _ int) (RecoveryManager, error) {
		return shadoweng.NewOverwrite(data, shadoweng.NoUndo), nil
	}},
	{"ow-noredo", false, func(data, _ *pagestore.Store, _ int) (RecoveryManager, error) {
		return shadoweng.NewOverwrite(data, shadoweng.NoRedo), nil
	}},
	{"verselect", false, func(data, _ *pagestore.Store, _ int) (RecoveryManager, error) {
		return shadoweng.NewVersion(data)
	}},
	{"difffile", false, func(data, _ *pagestore.Store, _ int) (RecoveryManager, error) {
		return diffeng.New(data), nil
	}},
}

// Architectures lists the seven recovery architectures by canonical name,
// the names the server, the crash sweep and the load generator accept.
func Architectures() []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	return names
}

// Select resolves a comma-separated list of architecture names; empty or
// "all" selects all seven.
func Select(sel string) ([]string, error) {
	if sel == "" || sel == "all" {
		return Architectures(), nil
	}
	var out []string
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(Architectures(), name) {
			return nil, unknownArchitecture(name)
		}
		out = append(out, name)
	}
	return out, nil
}

func unknownArchitecture(name string) error {
	known := Architectures()
	sort.Strings(known)
	return fmt.Errorf("engine: unknown architecture %q (have %s)", name, strings.Join(known, ", "))
}

// Build builds a fresh engine over the named architecture. open creates
// each stable store by role: "data" (4096-byte pages) for every
// architecture, then "log" (wal.LogChunkSize pages) for the WAL ones; the
// stores come back in that order. walPool is the WAL buffer pool in pages
// (0 for wal's default). On error Build returns every store it already
// opened, so the caller can release them.
func Build(arch string, walPool int, open func(role string, pageSize int) (*pagestore.Store, error)) (*Engine, []*pagestore.Store, error) {
	i := slices.IndexFunc(kernels, func(k kernel) bool { return k.name == arch })
	if i < 0 {
		return nil, nil, unknownArchitecture(arch)
	}
	data, err := open("data", 4096)
	if err != nil {
		return nil, nil, err
	}
	stores := []*pagestore.Store{data}
	var log *pagestore.Store
	if kernels[i].wal {
		if log, err = open("log", wal.LogChunkSize); err != nil {
			return nil, stores, err
		}
		stores = append(stores, log)
	}
	rm, err := kernels[i].build(data, log, walPool)
	if err != nil {
		return nil, stores, err
	}
	return New(rm), stores, nil
}

// NewWAL builds an engine over a write-ahead-logging recovery manager on a
// fresh memory store.
func NewWAL(cfg wal.Config) *Engine {
	e, _ := NewWALOn(pagestore.New(4096), cfg)
	return e
}

// NewWALOn is NewWAL over a caller-supplied store (for fault injection).
// The returned Manager is the pure kernel itself: touch it directly only
// while the engine is quiescent (reading stats after a run, grabbing
// LogStore before one); concurrent maintenance must go through
// Engine.Guard().
func NewWALOn(store *pagestore.Store, cfg wal.Config) (*Engine, *wal.Manager) {
	m := wal.NewManager(store, cfg)
	return New(m), m
}

// NewShadowOn builds an engine over the canonical shadow-paging manager on
// store.
func NewShadowOn(store *pagestore.Store) (*Engine, error) {
	se, err := shadoweng.New(store)
	if err != nil {
		return nil, err
	}
	return New(se), nil
}

// NewOverwriteOn builds an engine over an overwriting shadow manager on
// store.
func NewOverwriteOn(store *pagestore.Store, variant shadoweng.Variant) *Engine {
	return New(shadoweng.NewOverwrite(store, variant))
}

// NewVersionSelectOn builds an engine over the version-selection shadow
// manager on store.
func NewVersionSelectOn(store *pagestore.Store) (*Engine, error) {
	ve, err := shadoweng.NewVersion(store)
	if err != nil {
		return nil, err
	}
	return New(ve), nil
}

// NewDiffOn builds an engine over the differential-file manager on store.
func NewDiffOn(store *pagestore.Store) *Engine {
	return New(diffeng.New(store))
}
