package debitcredit

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/pagestore"
	"repro/internal/shadoweng"
	"repro/internal/sim"
	"repro/internal/wal"
)

func engines(t *testing.T) map[string]*engine.Engine {
	t.Helper()
	shadow, err := engine.NewShadow()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*engine.Engine{
		"wal":      engine.NewWAL(wal.Config{Streams: 2, Selection: wal.PageMod, PoolPages: 16}),
		"shadow":   shadow,
		"noundo":   engine.NewOverwrite(shadoweng.NoUndo),
		"difffile": engine.NewDiff(),
	}
}

func TestDebitCreditInvariants(t *testing.T) {
	for name, eng := range engines(t) {
		name, eng := name, eng
		t.Run(name, func(t *testing.T) {
			b, err := New(eng, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Run(120, 4); err != nil {
				t.Fatal(err)
			}
			commits, _ := b.Stats()
			if commits != 120 {
				t.Fatalf("commits = %d", commits)
			}
			if err := b.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDebitCreditSurvivesCrash(t *testing.T) {
	store := pagestore.New(4096)
	eng, _ := engine.NewWALOn(store, wal.Config{Streams: 2, Selection: wal.PageMod, PoolPages: 8})
	b, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(60, 3); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := b.ResyncAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(); err != nil {
		t.Fatalf("invariants broken after crash: %v", err)
	}
	// The bank keeps working after recovery.
	rng := sim.NewRNG(7)
	if err := b.Transact(rng, 0, 42); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDebitCreditCrashMidCommitStaysAtomic(t *testing.T) {
	for budget := int64(10); budget <= 200; budget += 37 {
		store := pagestore.New(4096)
		eng, _ := engine.NewWALOn(store, wal.Config{Streams: 2, PoolPages: 8})
		b, err := New(eng, Config{})
		if err != nil {
			t.Fatal(err)
		}
		store.SetFaultHook(pagestore.CrashAtMutation(budget + 1))
		_ = b.Run(50, 2) // errors expected when power fails
		eng.Crash()
		store.SetFaultHook(nil)
		if err := eng.Recover(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := b.ResyncAfterRecovery(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := b.Verify(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
	}
}

func TestRemoteBranchFraction(t *testing.T) {
	eng := engine.NewWAL(wal.Config{})
	b, err := New(eng, Config{Branches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(400, 4); err != nil {
		t.Fatal(err)
	}
	_, remote := b.Stats()
	frac := float64(remote) / 400
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("remote fraction %.2f, want ~0.15", frac)
	}
}
