package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/pagestore"
	"repro/internal/pagestore/filestore"
	"repro/internal/server"
	"repro/internal/shadoweng"
	"repro/internal/wal"
)

// rig is one freshly built engine together with the benchmark's meters on
// its stable stores (data store first, then the WAL's log store).
type rig struct {
	eng    *engine.Engine
	meters []*meter
	stores []*pagestore.Store
	dir    string // "" for memory stores
}

// buildEngine builds the named architecture with the same kernel
// configuration as server.NewEngine, on memory stores (dir == "") or on
// file-backed stores under dir. Every store's backend is wrapped in a meter,
// which only counts; with a tracer it also times each call, and the kernel
// is re-wrapped so its calls leave spans.
func buildEngine(arch, dir string, tr *tracer) (*rig, error) {
	r := &rig{dir: dir}
	open := func(name string, pageSize int) (*pagestore.Store, error) {
		var be pagestore.Backend
		storeDir := ""
		if dir == "" {
			be = pagestore.New(pageSize).Backend()
		} else {
			storeDir = filepath.Join(dir, name)
			st, err := filestore.Open(storeDir, pageSize)
			if err != nil {
				return nil, fmt.Errorf("open %s store: %w", name, err)
			}
			be = st.Backend()
		}
		m := &meter{inner: be, tr: tr, dir: storeDir}
		st := pagestore.NewOn(pageSize, m)
		st.SetFileHook(m.fileHook) // reports false, harmlessly, on memory
		r.meters = append(r.meters, m)
		r.stores = append(r.stores, st)
		return st, nil
	}
	fail := func(err error) (*rig, error) {
		r.close()
		return nil, err
	}

	data, err := open("data", 4096)
	if err != nil {
		return fail(err)
	}
	walOn := func(cfg wal.Config) error {
		logs, err := open("log", wal.LogChunkSize)
		if err != nil {
			return err
		}
		cfg.LogStore = logs
		r.eng, _ = engine.NewWALOn(data, cfg)
		return nil
	}
	switch arch {
	case "wal-1stream":
		err = walOn(wal.Config{})
	case "wal-3streams":
		err = walOn(wal.Config{Streams: 3, Selection: wal.PageMod})
	case "shadow":
		r.eng, err = engine.NewShadowOn(data)
	case "ow-noundo":
		r.eng = engine.NewOverwriteOn(data, shadoweng.NoUndo)
	case "ow-noredo":
		r.eng = engine.NewOverwriteOn(data, shadoweng.NoRedo)
	case "verselect":
		r.eng, err = engine.NewVersionSelectOn(data)
	case "difffile":
		r.eng = engine.NewDiffOn(data)
	default:
		known := server.Architectures()
		sort.Strings(known)
		err = fmt.Errorf("unknown architecture %q (have %s)", arch, strings.Join(known, ", "))
	}
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		r.eng = engine.New(&tracedKernel{inner: r.eng.Guard().Unwrap(), tr: tr})
	}
	return r, nil
}

// preload loads pages 0..n-1 with the initial balance. On files it defers the
// fsyncs and then loads page 0 once more with a real one, which makes the
// whole log durable: one fsync instead of n, so that set-up time is the
// program's and not n samples of the disk's mood (measured here: the same
// 1024 fsyncs took 79 ms in one set of runs and 191 ms in the next).
func (r *rig) preload(n int) error {
	for _, m := range r.meters {
		m.deferSync.Store(true)
	}
	err := server.InitPages(r.eng, n, initialBalance)
	for _, m := range r.meters {
		m.deferSync.Store(false)
	}
	if err != nil {
		return err
	}
	return r.eng.Load(0, server.EncodeBalance(initialBalance))
}

// close releases the stores and removes the run's files.
func (r *rig) close() {
	for _, st := range r.stores {
		st.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// counts sums the meters of all stores.
func (r *rig) counts() meterCounts {
	var c meterCounts
	for _, m := range r.meters {
		c.add(m.snapshot())
	}
	return c
}
