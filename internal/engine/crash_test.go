package engine

import (
	"fmt"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/shadoweng"
	"repro/internal/sim"
	"repro/internal/wal"
)

// crashCase builds an engine plus the store whose fault hook injects the
// crash.
type crashCase struct {
	name  string
	build func(t *testing.T) (*Engine, *pagestore.Store)
}

func crashCases() []crashCase {
	return []crashCase{
		{"wal-1stream", func(t *testing.T) (*Engine, *pagestore.Store) {
			store := pagestore.New(4096)
			e, m := NewWALOn(store, wal.Config{PoolPages: 4})
			_ = m
			return e, store
		}},
		{"wal-3streams", func(t *testing.T) (*Engine, *pagestore.Store) {
			store := pagestore.New(4096)
			e, m := NewWALOn(store, wal.Config{Streams: 3, Selection: wal.PageMod, PoolPages: 4})
			_ = m
			return e, store
		}},
		{"shadow", func(t *testing.T) (*Engine, *pagestore.Store) {
			store := pagestore.New(4096)
			e, err := NewShadowOn(store)
			if err != nil {
				t.Fatal(err)
			}
			return e, store
		}},
		{"ow-noundo", func(t *testing.T) (*Engine, *pagestore.Store) {
			store := pagestore.New(4096)
			return NewOverwriteOn(store, shadoweng.NoUndo), store
		}},
		{"ow-noredo", func(t *testing.T) (*Engine, *pagestore.Store) {
			store := pagestore.New(4096)
			return NewOverwriteOn(store, shadoweng.NoRedo), store
		}},
		{"verselect", func(t *testing.T) (*Engine, *pagestore.Store) {
			store := pagestore.New(4096)
			e, err := NewVersionSelectOn(store)
			if err != nil {
				t.Fatal(err)
			}
			return e, store
		}},
		{"difffile", func(t *testing.T) (*Engine, *pagestore.Store) {
			store := pagestore.New(4096)
			return NewDiffOn(store), store
		}},
	}
}

// TestCrashScheduleSweep drives every engine through a randomized
// transaction history, cutting power at every possible stable-write
// boundary, and verifies that recovery always restores a state consistent
// with the committed (plus possibly one atomic in-doubt) history.
func TestCrashScheduleSweep(t *testing.T) {
	const pages = 6
	for _, cc := range crashCases() {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			for budget := int64(1); budget <= 40; budget++ {
				runCrashSchedule(t, cc, budget, pages)
			}
		})
	}
}

func runCrashSchedule(t *testing.T, cc crashCase, budget int64, pages int) {
	t.Helper()
	e, store := cc.build(t)
	model := map[int64]string{}
	for p := int64(0); p < int64(pages); p++ {
		v := fmt.Sprintf("init%d", p)
		if err := e.Load(p, []byte(v)); err != nil {
			t.Fatalf("budget %d: load: %v", budget, err)
		}
		model[p] = v
	}
	rng := sim.NewRNG(budget * 7919)
	store.SetFaultHook(pagestore.CrashAtMutation(budget + 1))

	// Run transactions until the store crashes (or a fixed cap).
	var doubt map[int64]string
	for i := 0; i < 25; i++ {
		tx, err := e.Begin()
		if err != nil {
			break // store down
		}
		writes := map[int64]string{}
		n := rng.UniformInt(1, 3)
		failed := false
		for j := 0; j < n; j++ {
			p := int64(rng.Intn(pages))
			v := fmt.Sprintf("b%d-t%d-%d", budget, tx.ID(), j)
			if err := tx.Write(p, []byte(v)); err != nil {
				failed = true
				break
			}
			writes[p] = v
		}
		if failed {
			_ = tx.Abort() // may itself fail; either way it is a loser
			break
		}
		if rng.Bool(0.2) {
			if err := tx.Abort(); err != nil {
				break
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			doubt = writes // power failed mid-commit: in doubt
			break
		}
		for p, v := range writes {
			model[p] = v
		}
	}

	e.Crash()
	store.SetFaultHook(nil)
	if err := e.Recover(); err != nil {
		t.Fatalf("budget %d: recover: %v", budget, err)
	}
	applied, reverted := 0, 0
	for p := int64(0); p < int64(pages); p++ {
		got, err := e.ReadCommitted(p)
		if err != nil {
			t.Fatalf("budget %d: read %d: %v", budget, p, err)
		}
		if v, ok := doubt[p]; ok {
			switch string(got) {
			case v:
				applied++
			case model[p]:
				reverted++
			default:
				t.Fatalf("budget %d: page %d = %q (neither %q nor %q)",
					budget, p, got, v, model[p])
			}
			continue
		}
		if string(got) != model[p] {
			t.Fatalf("budget %d: page %d = %q, want %q", budget, p, got, model[p])
		}
	}
	if applied > 0 && reverted > 0 {
		t.Fatalf("budget %d: in-doubt commit torn (%d applied, %d reverted)",
			budget, applied, reverted)
	}

	// The recovered engine must be fully operational.
	if err := e.Update(func(tx *Txn) error { return tx.Write(0, []byte("post")) }); err != nil {
		t.Fatalf("budget %d: post-recovery update: %v", budget, err)
	}
	got, err := e.ReadCommitted(0)
	if err != nil || string(got) != "post" {
		t.Fatalf("budget %d: post-recovery state: %q %v", budget, got, err)
	}
}

// TestDoubleCrash exercises crash -> recover -> more work -> crash ->
// recover for every engine.
func TestDoubleCrash(t *testing.T) {
	for _, cc := range crashCases() {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			e, _ := cc.build(t)
			if err := e.Load(1, []byte("v0")); err != nil {
				t.Fatal(err)
			}
			if err := e.Update(func(tx *Txn) error { return tx.Write(1, []byte("v1")) }); err != nil {
				t.Fatal(err)
			}
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := e.Update(func(tx *Txn) error { return tx.Write(1, []byte("v2")) }); err != nil {
				t.Fatal(err)
			}
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			got, err := e.ReadCommitted(1)
			if err != nil || string(got) != "v2" {
				t.Fatalf("after double crash: %q %v", got, err)
			}
		})
	}
}
